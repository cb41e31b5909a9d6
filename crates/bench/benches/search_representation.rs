//! Ext. E bench: the two search representations head-to-head on identical
//! batches, under a realistic (tight) scheduling quantum — measuring the
//! cost of finding the schedule each phase delivers, plus the ablated
//! skipping variant of the sequence-oriented layout.

use bench_support::synthetic_batch;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paragon_des::{Duration, Time};
use paragon_platform::{HostParams, SchedulingMeter};
use rt_task::{CommModel, ResourceEats};
use sched_search::{search_schedule, ChildOrder, Pruning, Representation, SearchParams, TaskOrder};
use std::hint::black_box;

fn representations(c: &mut Criterion) {
    let workers = 10;
    let comm = CommModel::constant(Duration::from_millis(2));
    let layouts: [(&str, Representation, ChildOrder); 3] = [
        (
            "assignment",
            Representation::AssignmentOriented {
                task_order: TaskOrder::EarliestDeadline,
            },
            ChildOrder::LoadBalance,
        ),
        (
            "sequence",
            Representation::sequence_oriented(),
            ChildOrder::EarliestDeadline,
        ),
        (
            "sequence_skipping",
            Representation::SequenceOriented {
                processor_order: sched_search::ProcessorOrder::RoundRobin,
                skip_processors: true,
            },
            ChildOrder::EarliestDeadline,
        ),
    ];

    let mut group = c.benchmark_group("search_representation");
    for n in [100usize, 300] {
        let tasks = synthetic_batch(n, workers);
        let initial = vec![Time::ZERO; workers];
        for (label, repr, child_order) in &layouts {
            // print the schedule quality once: depth reached under a 1 ms
            // quantum is the figure the paper's Section 3 argues about
            let mut meter = SchedulingMeter::new(
                HostParams::new(Duration::from_micros(1)),
                Duration::from_millis(1),
            );
            let params = SearchParams {
                tasks: &tasks,
                comm: &comm,
                initial_finish: &initial,
                representation: repr,
                child_order: *child_order,
                now: Time::ZERO,
                vertex_cap: Some(100_000),
                pruning: Pruning::default(),
                resources: ResourceEats::new(),
                provenance: false,
            };
            let out = search_schedule(&params, &mut meter);
            println!(
                "# {label} n={n}: scheduled {} of {n} on {} processors ({:?})",
                out.assignments.len(),
                out.processors_used(&mut Vec::new()),
                out.termination
            );
            group.bench_with_input(BenchmarkId::new(*label, n), &tasks, |b, tasks| {
                b.iter(|| {
                    let mut meter = SchedulingMeter::new(
                        HostParams::new(Duration::from_micros(1)),
                        Duration::from_millis(1),
                    );
                    let params = SearchParams {
                        tasks,
                        comm: &comm,
                        initial_finish: &initial,
                        representation: repr,
                        child_order: *child_order,
                        now: Time::ZERO,
                        vertex_cap: Some(100_000),
                        pruning: Pruning::default(),
                        resources: ResourceEats::new(),
                        provenance: false,
                    };
                    black_box(search_schedule(&params, &mut meter).assignments.len())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, representations);
criterion_main!(benches);
