//! Property tests of the search engine itself: schedule validity,
//! feasibility, budget compliance and representation structure.

use proptest::prelude::*;

use rtsads_repro::des::{Duration, Time};
use rtsads_repro::platform::{HostParams, SchedulingMeter};
use rtsads_repro::search::{
    search_schedule, ChildOrder, ProcessorOrder, Pruning, Representation, SearchParams, TaskOrder,
    Termination,
};
use rtsads_repro::task::{AffinitySet, Batch, CommModel, ProcessorId, ResourceEats, Task, TaskId};

#[derive(Debug, Clone)]
struct Spec {
    p_us: u64,
    laxity_x10: u64,
    affinity_mask: u8,
}

fn spec() -> impl Strategy<Value = Spec> {
    (1u64..2_000, 10u64..60, 0u8..=255).prop_map(|(p_us, laxity_x10, affinity_mask)| Spec {
        p_us,
        laxity_x10,
        affinity_mask,
    })
}

fn tasks_from(specs: &[Spec], workers: usize) -> Vec<Task> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let p = Duration::from_micros(s.p_us);
            Task::builder(TaskId::new(i as u64))
                .processing_time(p)
                .deadline(Time::ZERO + p.mul_f64(s.laxity_x10 as f64 / 10.0))
                .affinity(
                    (0..workers)
                        .filter(|k| s.affinity_mask & (1 << (k % 8)) != 0)
                        .map(ProcessorId::new)
                        .collect::<AffinitySet>(),
                )
                .build()
        })
        .collect()
}

/// Recomputes the completion times of a returned schedule independently and
/// checks the engine's claims.
fn validate_schedule(
    tasks: &[Task],
    comm: &CommModel,
    initial: &[Time],
    assignments: &[rtsads_repro::search::Assignment],
) -> Result<(), TestCaseError> {
    let mut finish = initial.to_vec();
    let mut seen = vec![false; tasks.len()];
    for a in assignments {
        prop_assert!(!seen[a.task], "task {} scheduled twice", a.task);
        seen[a.task] = true;
        let t = &tasks[a.task];
        let done = finish[a.processor.index()] + comm.demand(t, a.processor);
        prop_assert_eq!(done, a.completion, "engine completion mismatch");
        prop_assert!(t.meets_deadline(done), "infeasible assignment returned");
        finish[a.processor.index()] = done;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every schedule either representation returns is valid, feasible and
    /// duplicate-free, under any quantum.
    #[test]
    fn returned_schedules_are_always_valid(
        specs in prop::collection::vec(spec(), 0..40),
        workers in 1usize..6,
        comm_us in prop::sample::select(vec![0u64, 50, 2_000]),
        quantum_us in prop::sample::select(vec![0u64, 20, 500, 50_000]),
        assignment_oriented in any::<bool>(),
    ) {
        let tasks = tasks_from(&specs, workers);
        let comm = CommModel::constant(Duration::from_micros(comm_us));
        let initial = vec![Time::ZERO; workers];
        let repr = if assignment_oriented {
            Representation::assignment_oriented()
        } else {
            Representation::sequence_oriented()
        };
        let batch: Batch = tasks.iter().cloned().collect();
        let params = SearchParams {
            batch: &batch,
            comm: &comm,
            initial_finish: &initial,
            representation: &repr,
            child_order: ChildOrder::LoadBalance,
            now: Time::ZERO,
            vertex_cap: Some(20_000),
            pruning: Pruning::default(),
            resources: ResourceEats::new(),
            provenance: false,
        };
        let mut meter = SchedulingMeter::new(
            HostParams::new(Duration::from_micros(1)),
            Duration::from_micros(quantum_us),
        );
        let out = search_schedule(&params, &mut meter);
        validate_schedule(&tasks, &comm, &initial, &out.assignments)?;
        // the meter agrees with the stats
        prop_assert_eq!(out.stats.vertices_generated, meter.vertices());
        prop_assert!(
            out.stats.feasible_children + out.stats.infeasible_children
                <= out.stats.vertices_generated
        );
    }

    /// With no quantum pressure and fully feasible workloads, the
    /// assignment-oriented search completes the batch (reaches a leaf).
    #[test]
    fn feasible_batches_complete_without_pressure(
        n in 1usize..25,
        workers in 1usize..6,
    ) {
        // all tasks local everywhere with huge laxity
        let tasks: Vec<Task> = (0..n)
            .map(|i| {
                Task::builder(TaskId::new(i as u64))
                    .processing_time(Duration::from_micros(100))
                    .deadline(Time::from_micros(100 * n as u64 * 10))
                    .affinity(AffinitySet::all(workers))
                    .build()
            })
            .collect();
        let comm = CommModel::free();
        let initial = vec![Time::ZERO; workers];
        let repr = Representation::assignment_oriented();
        let batch: Batch = tasks.iter().cloned().collect();
        let params = SearchParams {
            batch: &batch,
            comm: &comm,
            initial_finish: &initial,
            representation: &repr,
            child_order: ChildOrder::LoadBalance,
            now: Time::ZERO,
            vertex_cap: Some(200_000),
            pruning: Pruning::default(),
            resources: ResourceEats::new(),
            provenance: false,
        };
        let mut meter = SchedulingMeter::new(HostParams::free(), Duration::ZERO);
        let out = search_schedule(&params, &mut meter);
        prop_assert_eq!(out.termination, Termination::Leaf);
        prop_assert_eq!(out.assignments.len(), n);
        // load balance: no processor gets more than ceil(n/m) + 1 tasks
        let mut counts = vec![0usize; workers];
        for a in &out.assignments {
            counts[a.processor.index()] += 1;
        }
        let cap = n.div_ceil(workers) + 1;
        prop_assert!(counts.iter().all(|&c| c <= cap), "imbalanced: {:?}", counts);
    }

    /// The quantum is a hard budget: consumed time never exceeds it.
    #[test]
    fn consumed_time_never_exceeds_quantum(
        specs in prop::collection::vec(spec(), 1..30),
        workers in 1usize..5,
        quantum_us in 1u64..2_000,
    ) {
        let tasks = tasks_from(&specs, workers);
        let comm = CommModel::free();
        let initial = vec![Time::ZERO; workers];
        let repr = Representation::assignment_oriented();
        let batch: Batch = tasks.iter().cloned().collect();
        let params = SearchParams {
            batch: &batch,
            comm: &comm,
            initial_finish: &initial,
            representation: &repr,
            child_order: ChildOrder::EarliestCompletion,
            now: Time::ZERO,
            vertex_cap: None,
            pruning: Pruning::default(),
            resources: ResourceEats::new(),
            provenance: false,
        };
        let quantum = Duration::from_micros(quantum_us);
        let mut meter = SchedulingMeter::new(
            HostParams::new(Duration::from_micros(3)),
            quantum,
        );
        let _ = search_schedule(&params, &mut meter);
        prop_assert!(meter.consumed() <= quantum);
    }

    /// Sequence-oriented round-robin structure: sorting a returned complete
    /// schedule by path order yields processors 0,1,2,... modulo m.
    #[test]
    fn sequence_oriented_respects_round_robin_levels(
        n in 1usize..15,
        workers in 1usize..5,
    ) {
        let tasks: Vec<Task> = (0..n)
            .map(|i| {
                Task::builder(TaskId::new(i as u64))
                    .processing_time(Duration::from_micros(10))
                    .deadline(Time::from_millis(100))
                    .affinity(AffinitySet::all(workers))
                    .build()
            })
            .collect();
        let comm = CommModel::free();
        let initial = vec![Time::ZERO; workers];
        let repr = Representation::SequenceOriented {
            processor_order: ProcessorOrder::RoundRobin,
            skip_processors: false,
        };
        let batch: Batch = tasks.iter().cloned().collect();
        let params = SearchParams {
            batch: &batch,
            comm: &comm,
            initial_finish: &initial,
            representation: &repr,
            child_order: ChildOrder::EarliestDeadline,
            now: Time::ZERO,
            vertex_cap: Some(100_000),
            pruning: Pruning::default(),
            resources: ResourceEats::new(),
            provenance: false,
        };
        let mut meter = SchedulingMeter::new(HostParams::free(), Duration::ZERO);
        let out = search_schedule(&params, &mut meter);
        prop_assert_eq!(out.termination, Termination::Leaf);
        for (level, a) in out.assignments.iter().enumerate() {
            prop_assert_eq!(a.processor.index(), level % workers);
        }
    }

    /// EDF task ordering is what the assignment-oriented schedule follows
    /// when everything is feasible: completions appear in deadline order
    /// per construction path.
    #[test]
    fn assignment_oriented_follows_edf_levels(
        n in 2usize..12,
    ) {
        let workers = 3;
        let tasks: Vec<Task> = (0..n)
            .map(|i| {
                Task::builder(TaskId::new(i as u64))
                    .processing_time(Duration::from_micros(10))
                    // distinct deadlines, reversed so EDF must re-order
                    .deadline(Time::from_micros(10_000 + (n - i) as u64 * 100))
                    .affinity(AffinitySet::all(workers))
                    .build()
            })
            .collect();
        let comm = CommModel::free();
        let initial = vec![Time::ZERO; workers];
        let repr = Representation::AssignmentOriented {
            task_order: TaskOrder::EarliestDeadline,
        };
        let batch: Batch = tasks.iter().cloned().collect();
        let params = SearchParams {
            batch: &batch,
            comm: &comm,
            initial_finish: &initial,
            representation: &repr,
            child_order: ChildOrder::LoadBalance,
            now: Time::ZERO,
            vertex_cap: Some(100_000),
            pruning: Pruning::default(),
            resources: ResourceEats::new(),
            provenance: false,
        };
        let mut meter = SchedulingMeter::new(HostParams::free(), Duration::ZERO);
        let out = search_schedule(&params, &mut meter);
        prop_assert_eq!(out.termination, Termination::Leaf);
        let path_tasks: Vec<usize> = out.assignments.iter().map(|a| a.task).collect();
        let mut by_deadline: Vec<usize> = (0..n).collect();
        by_deadline.sort_by_key(|&i| tasks[i].deadline());
        prop_assert_eq!(path_tasks, by_deadline);
    }
}
