//! Allocation-churn microbenchmark: the same scheduling phase run with a
//! fresh scratch every iteration ("fresh") versus one scratch reused across
//! iterations ("reused") — the way [`rtsads::Driver`] runs phases in steady
//! state. The gap between the two is exactly the cost of allocator traffic
//! on the search hot path; the companion `zero_alloc` test pins the reused
//! variant to literally zero heap allocations per phase.
//!
//! `cargo bench --bench alloc_churn` times it; `-- --test` runs each
//! routine once as a smoke test (CI's perf-smoke job).

use bench_support::{deep_dive_batch, synthetic_batch, tight_batch};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use paragon_des::{Duration, SimRng, Time};
use paragon_platform::{HostParams, SchedulingMeter};
use rt_task::{CommModel, ResourceEats};
use rtsads::{Algorithm, PhaseScratch};
use sched_search::{
    search_schedule, search_schedule_with, ChildOrder, Pruning, Representation, SearchParams,
    SearchScratch,
};
use std::hint::black_box;

/// The raw engine on the canonical deep dive: depth-`n` straight descent,
/// no backtracking, so per-phase allocator traffic is the dominant
/// non-search cost and buffer reuse shows up directly in the phase rate.
fn engine_deep_dive(c: &mut Criterion) {
    let workers = 2;
    let comm = CommModel::free();
    let repr = Representation::assignment_oriented();
    let mut group = c.benchmark_group("alloc_churn_deep_dive");
    for n in [64usize, 128, 256] {
        let tasks = deep_dive_batch(n);
        let initial = vec![Time::ZERO; workers];
        let params = SearchParams {
            tasks: &tasks,
            comm: &comm,
            initial_finish: &initial,
            representation: &repr,
            child_order: ChildOrder::LoadBalance,
            now: Time::ZERO,
            vertex_cap: None,
            pruning: Pruning::default(),
            resources: ResourceEats::new(),
            provenance: false,
        };
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("fresh", n), &params, |b, p| {
            b.iter(|| {
                let mut meter = SchedulingMeter::new(HostParams::free(), Duration::ZERO);
                black_box(search_schedule(p, &mut meter).assignments.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("reused", n), &params, |b, p| {
            let mut scratch = SearchScratch::new();
            b.iter(|| {
                let mut meter = SchedulingMeter::new(HostParams::free(), Duration::ZERO);
                let out = search_schedule_with(p, &mut meter, &mut scratch);
                let len = out.assignments.len();
                scratch.recycle(out.assignments);
                black_box(len)
            });
        });
    }
    group.finish();
}

/// The full algorithm layer on the mixed and backtrack-heavy batches:
/// fresh versus reused [`PhaseScratch`] through `schedule_phase`, i.e. the
/// exact call the driver makes each phase.
fn phase_scratch(c: &mut Criterion) {
    let workers = 8;
    let comm = CommModel::constant(Duration::from_millis(2));
    let mut group = c.benchmark_group("alloc_churn_phase");
    let batches = [
        ("mixed", synthetic_batch(150, workers)),
        ("tight", tight_batch(150, workers)),
    ];
    for (name, tasks) in &batches {
        let initial = vec![Time::ZERO; workers];
        group.throughput(Throughput::Elements(tasks.len() as u64));
        for mode in ["fresh", "reused"] {
            group.bench_with_input(BenchmarkId::new(*name, mode), tasks, |b, tasks| {
                let algorithm = Algorithm::rt_sads();
                let mut scratch = PhaseScratch::new();
                b.iter(|| {
                    if mode == "fresh" {
                        scratch = PhaseScratch::new();
                    }
                    let mut meter = SchedulingMeter::new(
                        HostParams::new(Duration::from_micros(1)),
                        Duration::from_secs(10),
                    );
                    let mut rng = SimRng::seed_from(7);
                    let out = algorithm.schedule_phase(
                        tasks,
                        &comm,
                        &initial,
                        Time::ZERO,
                        Some(200_000),
                        Pruning::default(),
                        &ResourceEats::new(),
                        false,
                        &mut meter,
                        &mut rng,
                        &mut scratch,
                    );
                    let n = out.assignments.len();
                    scratch.recycle(out.assignments);
                    black_box(n)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, engine_deep_dive, phase_scratch);
criterion_main!(benches);
