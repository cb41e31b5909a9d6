//! Property tests at the algorithm layer: every scheduler's phase output is
//! a valid, feasible, budget-respecting schedule — including the myopic
//! baseline and the mesh communication model.

use proptest::prelude::*;

use rtsads_repro::des::{Duration, SimRng, Time};
use rtsads_repro::platform::{HostParams, SchedulingMeter};
use rtsads_repro::sads::{Algorithm, PhaseScratch};
use rtsads_repro::search::PhaseInput;
use rtsads_repro::task::{
    AffinitySet, Batch, CommModel, MeshSpec, ProcessorId, ResourceEats, Task, TaskId,
};

#[derive(Debug, Clone)]
struct Spec {
    p_us: u64,
    laxity_x10: u64,
    affinity_mask: u8,
}

fn spec() -> impl Strategy<Value = Spec> {
    (1u64..3_000, 10u64..60, 0u8..=255).prop_map(|(p_us, laxity_x10, affinity_mask)| Spec {
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

fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::rt_sads(),
        Algorithm::d_cols(),
        Algorithm::d_cols_skipping(),
        Algorithm::GreedyEdf,
        Algorithm::myopic(),
        Algorithm::RandomAssign,
    ]
}

fn validate(
    tasks: &[Task],
    comm: &CommModel,
    initial: &[Time],
    assignments: &[rtsads_repro::search::Assignment],
) -> Result<(), TestCaseError> {
    let mut finish = initial.to_vec();
    let mut seen = vec![false; tasks.len()];
    for a in assignments {
        prop_assert!(!seen[a.task]);
        seen[a.task] = true;
        let done = finish[a.processor.index()] + comm.demand(&tasks[a.task], a.processor);
        prop_assert_eq!(done, a.completion);
        prop_assert!(tasks[a.task].meets_deadline(done));
        finish[a.processor.index()] = done;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Validity of every algorithm's phase output under constant-C
    /// communication, arbitrary quanta and backlogs.
    #[test]
    fn every_algorithm_emits_valid_schedules(
        specs in prop::collection::vec(spec(), 0..30),
        workers in 1usize..6,
        comm_us in prop::sample::select(vec![0u64, 100, 2_000]),
        quantum_us in prop::sample::select(vec![5u64, 200, 50_000]),
        backlog_us in 0u64..5_000,
    ) {
        let tasks = tasks_from(&specs, workers);
        let batch: Batch = tasks.iter().cloned().collect();
        let comm = CommModel::constant(Duration::from_micros(comm_us));
        // heterogeneous initial backlogs
        let initial: Vec<Time> = (0..workers)
            .map(|k| Time::from_micros(backlog_us * (k as u64 % 3)))
            .collect();
        for alg in algorithms() {
            let mut meter = SchedulingMeter::new(
                HostParams::new(Duration::from_micros(1)),
                Duration::from_micros(quantum_us),
            );
            let mut rng = SimRng::seed_from(5);
            let mut scratch = PhaseScratch::new();
            let out = alg.schedule_phase(
                &PhaseInput {
                    batch: &batch,
                    comm: &comm,
                    initial_finish: &initial,
                    vertex_cap: Some(30_000),
                    backtrack_limit: None,
                    resources: &ResourceEats::new(),
                    provenance: false,
                },
                &mut meter,
                &mut rng,
                &mut scratch,
            );
            validate(&tasks, &comm, &initial, &out.assignments)?;
            prop_assert!(meter.consumed() <= meter.quantum(), "{}", alg.name());
        }
    }

    /// The same validity under the 2D-mesh communication model.
    #[test]
    fn mesh_model_preserves_schedule_validity(
        specs in prop::collection::vec(spec(), 1..25),
        cols in 2u16..5,
        rows in 1u16..3,
    ) {
        let workers = usize::from(cols) * usize::from(rows);
        let tasks = tasks_from(&specs, workers);
        let batch: Batch = tasks.iter().cloned().collect();
        let comm = CommModel::mesh(MeshSpec::new(cols, rows, 300, 150));
        let initial = vec![Time::ZERO; workers];
        for alg in [Algorithm::rt_sads(), Algorithm::d_cols(), Algorithm::myopic()] {
            let mut meter = SchedulingMeter::new(
                HostParams::new(Duration::from_micros(1)),
                Duration::from_micros(20_000),
            );
            let mut rng = SimRng::seed_from(9);
            let mut scratch = PhaseScratch::new();
            let out = alg.schedule_phase(
                &PhaseInput {
                    batch: &batch,
                    comm: &comm,
                    initial_finish: &initial,
                    vertex_cap: Some(30_000),
                    backtrack_limit: None,
                    resources: &ResourceEats::new(),
                    provenance: false,
                },
                &mut meter,
                &mut rng,
                &mut scratch,
            );
            validate(&tasks, &comm, &initial, &out.assignments)?;
        }
    }

    /// Mesh costs are sane: zero on affine processors, bounded by the
    /// diameter cost elsewhere, and never below the startup cost.
    #[test]
    fn mesh_costs_are_bounded(
        cols in 1u16..6,
        rows in 1u16..6,
        startup in 1u32..2_000,
        per_hop in 0u32..1_000,
        mask in 0u8..=255,
        p_idx in 0usize..36,
    ) {
        let spec = MeshSpec::new(cols, rows, startup, per_hop);
        let workers = spec.nodes();
        let p_idx = p_idx % workers;
        let aff: AffinitySet = (0..workers)
            .filter(|k| mask & (1 << (k % 8)) != 0)
            .map(ProcessorId::new)
            .collect();
        let task = Task::builder(TaskId::new(0))
            .processing_time(Duration::from_micros(10))
            .deadline(Time::from_millis(100))
            .affinity(aff.clone())
            .build();
        let comm = CommModel::mesh(spec);
        let p = ProcessorId::new(p_idx);
        let cost = comm.cost(&task, p);
        if aff.contains(p) {
            prop_assert_eq!(cost, Duration::ZERO);
        } else {
            prop_assert!(cost >= Duration::from_micros(u64::from(startup)));
            prop_assert!(cost <= comm.constant_cost());
        }
    }

    /// Greedy-EDF is a lower bound for RT-SADS's *best-found* depth when
    /// both get an unbounded budget: the search always discovers at least
    /// the greedy dive (its first descent is greedy-like and backtracking
    /// only adds options). We check the weaker, always-true form: RT-SADS
    /// schedules at least one task whenever greedy does.
    #[test]
    fn search_never_schedules_zero_when_greedy_succeeds(
        specs in prop::collection::vec(spec(), 1..20),
        workers in 1usize..5,
    ) {
        let tasks = tasks_from(&specs, workers);
        let batch: Batch = tasks.iter().cloned().collect();
        let comm = CommModel::constant(Duration::from_micros(500));
        let initial = vec![Time::ZERO; workers];
        let run = |alg: Algorithm| {
            let mut meter = SchedulingMeter::new(HostParams::free(), Duration::ZERO);
            let mut rng = SimRng::seed_from(3);
            alg.schedule_phase(
                &PhaseInput {
                    batch: &batch,
                    comm: &comm,
                    initial_finish: &initial,
                    vertex_cap: Some(50_000),
                    backtrack_limit: None,
                    resources: &ResourceEats::new(),
                    provenance: false,
                },
                &mut meter,
                &mut rng,
                &mut PhaseScratch::new(),
            )
        };
        let greedy = run(Algorithm::GreedyEdf);
        let sads = run(Algorithm::rt_sads());
        if !greedy.assignments.is_empty() {
            prop_assert!(
                !sads.assignments.is_empty(),
                "greedy scheduled {} but RT-SADS scheduled none",
                greedy.assignments.len()
            );
        }
    }
}
