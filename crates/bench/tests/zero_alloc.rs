//! Pins the headline claim of the scratch refactor: after a short warm-up,
//! a scheduling phase on the canonical bench scenarios performs **zero**
//! heap allocations — every buffer the search touches lives in the reused
//! [`SearchScratch`]/[`PhaseScratch`] at its high-water capacity.
//!
//! The counting allocator wraps [`System`] and counts `alloc`/`realloc`/
//! `alloc_zeroed` calls only while armed. All scenarios run inside one test
//! function so no sibling test can allocate concurrently while the counter
//! is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `phase` `warmup` times unarmed (to grow every buffer to its
/// high-water mark), then `measured` times armed, and returns the number of
/// heap allocations observed during the armed window.
fn count_allocs(warmup: usize, measured: usize, mut phase: impl FnMut()) -> u64 {
    for _ in 0..warmup {
        phase();
    }
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..measured {
        phase();
    }
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_phases_do_not_allocate() {
    use bench_support::{deep_dive_batch, synthetic_batch, tight_batch};
    use paragon_des::{Duration, SimRng, Time};
    use paragon_platform::{HostParams, SchedulingMeter};
    use rt_task::{CommModel, ResourceEats};
    use rtsads::{Algorithm, PhaseScratch};
    use sched_search::{
        search_schedule_with, ChildOrder, Pruning, Representation, SearchParams, SearchScratch,
    };

    const WARMUP: usize = 3;
    const MEASURED: usize = 32;

    // Canonical point 1: the raw engine on the depth-64 deep dive.
    {
        let tasks = deep_dive_batch(64);
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = vec![Time::ZERO; 2];
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
        let mut scratch = SearchScratch::new();
        let n = count_allocs(WARMUP, MEASURED, || {
            let mut meter = SchedulingMeter::new(HostParams::free(), Duration::ZERO);
            let out = search_schedule_with(&params, &mut meter, &mut scratch);
            assert_eq!(out.assignments.len(), 64);
            scratch.recycle(out.assignments);
        });
        assert_eq!(n, 0, "deep-dive engine phase allocated {n} times");
    }

    // Canonical points 2 and 3: the full algorithm layer (the driver's
    // exact call) on the mixed and backtrack-heavy batches, under RT-SADS
    // and under D-COLS — the sequence-oriented layout, whose EDF successor
    // order reads the phase's deadline ranks.
    let workers = 8;
    let comm = CommModel::constant(Duration::from_millis(2));
    let initial = vec![Time::ZERO; workers];
    for (name, tasks, algorithm) in [
        ("mixed", synthetic_batch(150, workers), Algorithm::rt_sads()),
        ("tight", tight_batch(150, workers), Algorithm::rt_sads()),
        ("mixed", synthetic_batch(150, workers), Algorithm::d_cols()),
        ("tight", tight_batch(150, workers), Algorithm::d_cols()),
    ] {
        let mut scratch = PhaseScratch::new();
        let n = count_allocs(WARMUP, MEASURED, || {
            let mut meter = SchedulingMeter::new(
                HostParams::new(Duration::from_micros(1)),
                Duration::from_secs(10),
            );
            let mut rng = SimRng::seed_from(7);
            let out = algorithm.schedule_phase(
                &tasks,
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
            scratch.recycle(out.assignments);
        });
        assert_eq!(
            n,
            0,
            "{name} {} schedule_phase allocated {n} times",
            algorithm.name()
        );
    }

    // Canonical point 4: the shard-first candidate path at P=1024 (the
    // sharded bench point's exact scenario). This exercises every structure
    // the incremental-column refactor added — the per-task column segments,
    // the shared touched-processor journal, the packed candidate keys and
    // the shard min-tree — all of which must reach a steady-state capacity
    // during warm-up and never allocate again.
    {
        let tasks = synthetic_batch(150, 1_024);
        let topo = rt_task::TopologySpec::new(1_024, 16, 4, 0, 2_000, 4_000);
        let sharded_comm = CommModel::hierarchical(topo);
        let sharded_initial = vec![Time::ZERO; 1_024];
        let algorithm = Algorithm::rt_sads();
        let mut scratch = PhaseScratch::new();
        let n = count_allocs(WARMUP, MEASURED, || {
            let mut meter = SchedulingMeter::new(
                HostParams::new(Duration::from_micros(1)),
                Duration::from_secs(10),
            );
            let mut rng = SimRng::seed_from(7);
            let out = algorithm.schedule_phase(
                &tasks,
                &sharded_comm,
                &sharded_initial,
                Time::ZERO,
                Some(200_000),
                Pruning::default(),
                &ResourceEats::new(),
                false,
                &mut meter,
                &mut rng,
                &mut scratch,
            );
            scratch.recycle(out.assignments);
        });
        assert_eq!(n, 0, "sharded schedule_phase allocated {n} times");
    }

    // The stage profiler must not break the zero-allocation claim: with
    // profiling enabled, the serial hot path adds only monotonic clock
    // reads folded into a fixed-size array (walk records exist solely on
    // the split path), so a profiled steady-state phase still allocates
    // nothing.
    {
        let tasks = synthetic_batch(150, workers);
        let algorithm = Algorithm::rt_sads();
        let mut scratch = PhaseScratch::new();
        scratch.search.set_profiling(true);
        let n = count_allocs(WARMUP, MEASURED, || {
            let mut meter = SchedulingMeter::new(
                HostParams::new(Duration::from_micros(1)),
                Duration::from_secs(10),
            );
            let mut rng = SimRng::seed_from(7);
            let out = algorithm.schedule_phase(
                &tasks,
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
            scratch.recycle(out.assignments);
        });
        assert_eq!(n, 0, "profiled schedule_phase allocated {n} times");
        let profile = scratch.search.take_profile();
        assert!(profile.total_ns() > 0, "profiler attributed no time");
    }

    // The JSONL sink serializes each line straight into one reused buffer:
    // once warm, streaming a recorded run's events (provenance payloads
    // included) into a pre-sized in-memory trace allocates nothing. The
    // events are cloned before the counter is armed; dropping them after
    // emit frees memory but allocates none.
    {
        use paragon_des::trace::{RecordingTracer, TraceEvent, TraceSink};
        use rt_telemetry::JsonlTracer;
        use rtsads::{Driver, DriverConfig};

        let built = rt_workload::Scenario::small().build(1998);
        let mut recorder = RecordingTracer::new();
        let _report = Driver::new(
            DriverConfig::new(4, Algorithm::rt_sads())
                .comm(comm)
                .seed(1998),
        )
        .run_traced(built.tasks, &mut recorder);
        let events = recorder.into_events();
        for kind in ["TaskScreened", "PlacementDecided"] {
            assert!(
                events.iter().any(|(_, e)| e.kind() == kind),
                "the recorded run has no {kind} event"
            );
        }

        let mut sizing = JsonlTracer::new(Vec::new());
        for (now, event) in events.clone() {
            sizing.emit(now, event);
        }
        let bytes = sizing.finish().expect("in-memory writes succeed").len();

        let mut sink = JsonlTracer::new(Vec::with_capacity(2 * bytes));
        let mut passes: Vec<Vec<(paragon_des::Time, TraceEvent)>> =
            vec![events.clone(), events.clone()];
        let n = count_allocs(1, 1, || {
            for (now, event) in passes.pop().expect("one copy per pass") {
                sink.emit(now, event);
            }
        });
        assert_eq!(n, 0, "warm JSONL emit allocated {n} times");
        assert_eq!(sink.lines(), 2 * events.len() as u64);
    }
}
