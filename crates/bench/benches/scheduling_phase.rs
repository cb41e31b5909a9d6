//! Microbenchmark of one scheduling phase: how fast the search engine
//! turns a batch into a feasible schedule under each representation, and
//! how the baselines compare at the same job.

use bench_support::{deep_dive_batch, synthetic_batch};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use paragon_des::{Duration, SimRng, Time};
use paragon_platform::{HostParams, SchedulingMeter};
use rt_task::{CommModel, ResourceEats};
use rtsads::{Algorithm, PhaseScratch};
use sched_search::{
    search_schedule, search_schedule_replay, ChildOrder, Pruning, Representation, SearchParams,
};
use std::hint::black_box;

fn phase(c: &mut Criterion) {
    let workers = 8;
    let comm = CommModel::constant(Duration::from_millis(2));
    let mut group = c.benchmark_group("scheduling_phase");
    for n in [50usize, 150, 400] {
        let tasks = synthetic_batch(n, workers);
        let initial = vec![Time::ZERO; workers];
        group.throughput(Throughput::Elements(n as u64));
        for algorithm in [
            Algorithm::rt_sads(),
            Algorithm::d_cols(),
            Algorithm::GreedyEdf,
        ] {
            group.bench_with_input(BenchmarkId::new(algorithm.name(), n), &tasks, |b, tasks| {
                // One scratch per benchmark, reused across iterations —
                // exactly how the driver runs phases in steady state.
                let mut scratch = PhaseScratch::new();
                b.iter(|| {
                    // an effectively unbounded quantum: profile the raw
                    // search, bounded by the vertex cap
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

/// The tentpole scenario for the incremental engine: a straight dive of
/// depth `n` with every task feasible, so the search expands root-to-leaf
/// without backtracking. The incremental engine applies each assignment
/// exactly once (O(n) state work for the whole phase); the replay oracle
/// rebuilds the full root-to-vertex prefix on every pop (O(n²)), so its
/// per-vertex cost grows with depth.
fn deep_dive(c: &mut Criterion) {
    let workers = 2;
    let comm = CommModel::free();
    let repr = Representation::assignment_oriented();
    let mut group = c.benchmark_group("scheduling_phase_deep_dive");
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
        group.bench_with_input(BenchmarkId::new("incremental", n), &params, |b, p| {
            b.iter(|| {
                let mut meter = SchedulingMeter::new(HostParams::free(), Duration::ZERO);
                black_box(search_schedule(p, &mut meter).assignments.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("replay", n), &params, |b, p| {
            b.iter(|| {
                let mut meter = SchedulingMeter::new(HostParams::free(), Duration::ZERO);
                black_box(search_schedule_replay(p, &mut meter).assignments.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, phase, deep_dive);
criterion_main!(benches);
