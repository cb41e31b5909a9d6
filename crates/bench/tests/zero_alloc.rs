//! Pins the headline claim of the scratch refactor: after a short warm-up,
//! a scheduling phase on the canonical bench scenarios performs **zero**
//! heap allocations — every buffer the search touches lives in the reused
//! [`SearchScratch`]/[`PhaseScratch`] at its high-water capacity.
//!
//! It also fences a whole warm `Driver::run` at the paper's P=10 point and
//! at the P=1024 cluster point, and a traced P=10 run: a run still
//! allocates (each delivered task's one copy into its worker's slot, each
//! run's fresh scratch, and under a sink the events' probe lists), but the
//! count and the bytes must stay under fixed bounds. Two sinks are fenced
//! at zero once warm: the metrics collector and the JSONL writer.
//!
//! The counting allocator wraps [`System`] and counts `alloc`/`realloc`/
//! `alloc_zeroed` calls, and the bytes they request, only while armed. All
//! scenarios run inside one test function so no sibling test can allocate
//! concurrently while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts one allocation of `bytes` bytes while armed.
fn record(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `phase` `warmup` times unarmed (to grow every buffer to its
/// high-water mark), then `measured` times armed, and returns the number of
/// heap allocations observed during the armed window and the bytes they
/// requested (a `realloc` counts its new size).
fn count_allocs(warmup: usize, measured: usize, mut phase: impl FnMut()) -> (u64, u64) {
    for _ in 0..warmup {
        phase();
    }
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..measured {
        phase();
    }
    ARMED.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst))
}

#[test]
fn steady_state_phases_do_not_allocate() {
    use bench_support::{deep_dive_batch, synthetic_batch, tight_batch};
    use paragon_des::{Duration, SimRng, Time};
    use paragon_platform::{HostParams, SchedulingMeter};
    use rt_task::{Batch, CommModel, ResourceEats};
    use rtsads::{Algorithm, PhaseScratch};
    use sched_search::{
        search_schedule_with, ChildOrder, Pruning, Representation, SearchParams, SearchScratch,
    };

    const WARMUP: usize = 3;
    const MEASURED: usize = 32;

    // Each per-phase fence builds its batch, with the batch's expiry and
    // class columns, before the counter is armed, as the driver builds its
    // batch once per run.
    // Canonical point 1: the raw engine on the depth-64 deep dive.
    {
        let batch: Batch = deep_dive_batch(64).into_iter().collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = vec![Time::ZERO; 2];
        let params = SearchParams {
            batch: &batch,
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
        let (n, _) = count_allocs(WARMUP, MEASURED, || {
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
        let batch: Batch = tasks.into_iter().collect();
        let mut scratch = PhaseScratch::new();
        let (n, _) = count_allocs(WARMUP, MEASURED, || {
            let mut meter = SchedulingMeter::new(
                HostParams::new(Duration::from_micros(1)),
                Duration::from_secs(10),
            );
            let mut rng = SimRng::seed_from(7);
            let out = algorithm.schedule_phase(
                &batch,
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
    // the shard min-tree — and the (affinity class, node) cost table that
    // the screen prices once per phase and the shard ranking and the column
    // fill read; the table is cleared, never dropped, like the rest. All of
    // them must reach a steady-state capacity during warm-up and never
    // allocate again.
    {
        let batch: Batch = synthetic_batch(150, 1_024).into_iter().collect();
        let topo = rt_task::TopologySpec::new(1_024, 16, 4, 0, 2_000, 4_000);
        let sharded_comm = CommModel::hierarchical(topo);
        let sharded_initial = vec![Time::ZERO; 1_024];
        let algorithm = Algorithm::rt_sads();
        let mut scratch = PhaseScratch::new();
        let (n, _) = count_allocs(WARMUP, MEASURED, || {
            let mut meter = SchedulingMeter::new(
                HostParams::new(Duration::from_micros(1)),
                Duration::from_secs(10),
            );
            let mut rng = SimRng::seed_from(7);
            let out = algorithm.schedule_phase(
                &batch,
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
        let batch: Batch = synthetic_batch(150, workers).into_iter().collect();
        let algorithm = Algorithm::rt_sads();
        let mut scratch = PhaseScratch::new();
        scratch.search.set_profiling(true);
        let (n, _) = count_allocs(WARMUP, MEASURED, || {
            let mut meter = SchedulingMeter::new(
                HostParams::new(Duration::from_micros(1)),
                Duration::from_secs(10),
            );
            let mut rng = SimRng::seed_from(7);
            let out = algorithm.schedule_phase(
                &batch,
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

    // A whole warm, untraced run at the paper's P=10 point (Figure 5's
    // scenario, C = 2 ms, 1 µs per generated vertex), and one at the P=1024
    // cluster point (16 nodes × 4 racks; intra-node free, inter-node 2 ms,
    // inter-rack 4 ms). Each run builds its own scratch, so "warm" means a
    // second run in the same process. The bounds fence the per-run
    // allocation traffic: one batch kept for the whole run and reserved
    // once for all of its tasks, so it never doubles, with each distinct
    // affinity set interned once; scheduled tasks removed by position,
    // expired tasks removed in place, arrivals moved rather than cloned,
    // candidate columns held only for the segments a phase syncs (none for
    // a round the blocked bound rules out) and priced from one (class,
    // node) cost table per phase, which the run's fresh scratch allocates
    // once (about 5 KB on the cluster, 160 bytes at P=10), each expansion's
    // children pushed in one pass, each delivered task cloned once, into
    // its worker's slot, with no per-phase dispatch list, record list or
    // processor count buffer, and the completion records moved into the
    // report. The traced run repeats
    // the P=10 RT-SADS run into a sink that asks for every event (so the
    // search collects provenance) and drops each one; the probe lists the
    // search builds are the ones the events carry. A zero-allocation warm
    // driver phase is still open.
    {
        use paragon_des::trace::{TraceEvent, TraceSink};
        use paragon_platform::HostParams;
        use rt_task::TopologySpec;
        use rtsads::{Driver, DriverConfig};

        /// Enabled, so the driver builds every event, and drops each one.
        struct DropSink;

        impl TraceSink for DropSink {
            fn emit(&mut self, _now: Time, _event: TraceEvent) {}
        }

        let cluster = CommModel::hierarchical(TopologySpec::new(1_024, 16, 4, 0, 2_000, 4_000));
        for (algorithm, workers, run_comm, traced, max_allocs, max_bytes) in [
            (Algorithm::rt_sads(), 10, comm, false, 260, 400 << 10),
            (Algorithm::d_cols(), 10, comm, false, 78, 310 << 10),
            (
                Algorithm::rt_sads(),
                1_024,
                cluster,
                false,
                1_060,
                6_500_000,
            ),
            (Algorithm::rt_sads(), 10, comm, true, 1_450, 820 << 10),
        ] {
            let tasks = rt_workload::Scenario::paper_defaults()
                .workers(workers)
                .replication_rate(0.3)
                .sf(1.0)
                .build(1998)
                .tasks;
            let driver = Driver::new(
                DriverConfig::new(workers, algorithm.clone())
                    .comm(run_comm)
                    .host(HostParams::new(Duration::from_micros(1)))
                    .seed(1998),
            );
            // The input copies are made before the counter is armed.
            let mut inputs = vec![tasks.clone(), tasks.clone()];
            let (allocs, bytes) = count_allocs(1, 1, || {
                let input = inputs.pop().expect("one input per run");
                let report = if traced {
                    driver.run_traced(input, &mut DropSink)
                } else {
                    driver.run(input)
                };
                assert_eq!(report.total_tasks, tasks.len());
            });
            let name = algorithm.name();
            assert!(
                allocs < max_allocs,
                "a warm {name} run at P={workers} (traced: {traced}) allocated {allocs} times \
                 (bound {max_allocs})"
            );
            assert!(
                bytes < max_bytes,
                "a warm {name} run at P={workers} (traced: {traced}) allocated {bytes} bytes \
                 (bound {max_bytes})"
            );
        }
    }

    // The metrics collector updates each metric in place and copies its
    // name into a key only when the metric is new: once a recorded run's
    // events (stage profiles and scheduler overheads included) have created
    // every metric, folding them in again allocates nothing.
    {
        use paragon_des::trace::{RecordingTracer, TraceEvent, TraceSink};
        use rt_telemetry::MetricsCollector;
        use rtsads::{Driver, DriverConfig};

        let built = rt_workload::Scenario::small().build(1998);
        let mut recorder = RecordingTracer::new();
        let _report = Driver::new(
            DriverConfig::new(4, Algorithm::rt_sads())
                .comm(comm)
                .seed(1998)
                .measure_overhead(true)
                .profile(true),
        )
        .run_traced(built.tasks, &mut recorder);
        let events = recorder.into_events();
        for kind in ["PhaseProfiled", "SchedulerOverhead", "TaskCompleted"] {
            assert!(
                events.iter().any(|(_, e)| e.kind() == kind),
                "the recorded run has no {kind} event"
            );
        }

        let mut collector = MetricsCollector::new();
        let mut passes: Vec<Vec<(paragon_des::Time, TraceEvent)>> =
            vec![events.clone(), events.clone()];
        let (n, _) = count_allocs(1, 1, || {
            for (now, event) in passes.pop().expect("one copy per pass") {
                collector.emit(now, event);
            }
        });
        assert_eq!(n, 0, "warm metrics collection allocated {n} times");
        let phases = events
            .iter()
            .filter(|(_, e)| e.kind() == "PhaseStarted")
            .count() as u64;
        assert_eq!(collector.registry().counter("phase.count"), 2 * phases);
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
        let (n, _) = count_allocs(1, 1, || {
            for (now, event) in passes.pop().expect("one copy per pass") {
                sink.emit(now, event);
            }
        });
        assert_eq!(n, 0, "warm JSONL emit allocated {n} times");
        assert_eq!(sink.lines(), 2 * events.len() as u64);
    }
}
