//! Telemetry must be a pure observer: attaching every sink at once to a run
//! changes nothing about the simulation outcome, profiling adds only its
//! own events, and the outputs themselves are well-formed (parseable
//! JSONL, quantile-bearing metrics, a Perfetto trace with a scheduler track
//! and one track per processor).

use rtsads_repro::des::trace::RecordingTracer;
use rtsads_repro::des::Duration;
use rtsads_repro::platform::HostParams;
use rtsads_repro::sads::{Algorithm, Driver, DriverConfig, FaultConfig, RunReport};
use rtsads_repro::task::CommModel;
use rtsads_repro::telemetry::{
    jsonl::parse_trace, JsonlTracer, MetricsCollector, MultiSink, PerfettoTracer,
    TimeSeriesRecorder, TraceEvent,
};
use rtsads_repro::workload::Scenario;

const WORKERS: usize = 4;
const SEED: u64 = 1_998;

fn driver() -> Driver {
    Driver::new(
        DriverConfig::new(WORKERS, Algorithm::rt_sads())
            .comm(CommModel::constant(Duration::from_millis(2)))
            .host(HostParams::new(Duration::from_micros(1)))
            .seed(SEED),
    )
}

fn workload() -> Vec<rtsads_repro::task::Task> {
    Scenario::paper_defaults()
        .workers(WORKERS)
        .transactions(150)
        .build(SEED)
        .tasks
}

fn assert_same_outcome(a: &RunReport, b: &RunReport) {
    assert_eq!(a.hits, b.hits, "hit count must not change under tracing");
    assert_eq!(a.total_tasks, b.total_tasks);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.executed_misses, b.executed_misses);
    assert_eq!(a.finished_at, b.finished_at);
    assert_eq!(a.phases.len(), b.phases.len());
    assert_eq!(a.worker_busy, b.worker_busy);
    assert!((a.hit_ratio() - b.hit_ratio()).abs() == 0.0);
}

#[test]
fn full_telemetry_changes_results_by_exactly_zero() {
    let untraced = driver().run(workload());

    let mut jsonl = JsonlTracer::new(Vec::new());
    let mut perfetto = PerfettoTracer::new();
    let mut collector = MetricsCollector::new();
    let traced = {
        let mut sink = MultiSink::new()
            .with(&mut collector)
            .with(&mut jsonl)
            .with(&mut perfetto);
        driver().run_traced(workload(), &mut sink)
    };

    assert_same_outcome(&untraced, &traced);

    // The trace stream must agree with the report it rode along with.
    let raw = String::from_utf8(jsonl.finish().unwrap()).unwrap();
    let events = parse_trace(&raw).unwrap();
    let completed = events
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::TaskCompleted { .. }))
        .count();
    let hits = events
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                TraceEvent::TaskCompleted {
                    met_deadline: true,
                    ..
                }
            )
        })
        .count();
    assert_eq!(hits, traced.hits);
    assert_eq!(completed + traced.dropped, traced.total_tasks);

    // And the metrics with both of them.
    let registry = collector.registry();
    assert_eq!(registry.counter("task.completed"), completed as u64);
    assert_eq!(registry.counter("task.deadline_hits"), traced.hits as u64);
    assert_eq!(registry.counter("phase.count"), traced.phases.len() as u64);
    let lateness = registry
        .histogram("task.lateness_us")
        .expect("lateness recorded");
    assert!(lateness.p50().is_some() && lateness.p99().is_some());

    // The Perfetto export names the scheduler track and every processor.
    let mut out = Vec::new();
    perfetto.write_chrome_trace(&mut out, WORKERS).unwrap();
    let chrome = String::from_utf8(out).unwrap();
    assert!(chrome.contains("scheduler (host)"));
    for k in 0..WORKERS {
        assert!(
            chrome.contains(&format!("\"P{k}\"")),
            "missing processor track P{k}"
        );
    }
}

/// The pinned-seed acceptance check: the windowed CSV's per-window counts
/// sum bit-exactly to the run report's counters, and the Perfetto export
/// carries per-processor utilization counter tracks next to the spans.
#[test]
fn timeseries_csv_sums_bit_exactly_to_the_report() {
    let mut recorder = TimeSeriesRecorder::new(10_000);
    let mut perfetto = PerfettoTracer::new();
    let report = {
        let mut sink = MultiSink::new().with(&mut recorder).with(&mut perfetto);
        driver().run_traced(workload(), &mut sink)
    };
    let series = recorder.finish();

    // Sum the CSV rows themselves (not the in-memory windows) so the check
    // covers the export path end to end.
    let csv = series.to_csv();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    let col = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .unwrap_or_else(|| panic!("missing CSV column {name}"))
    };
    let (admitted_c, dropped_c) = (col("admitted"), col("dropped"));
    let (hits_c, misses_c, lost_c) = (col("hits"), col("misses"), col("lost"));
    let (phases_c, vertices_c) = (col("phases"), col("vertices"));
    let mut sums = vec![0u64; header.len()];
    for line in lines {
        for (i, field) in line.split(',').enumerate() {
            if let Ok(v) = field.parse::<u64>() {
                sums[i] += v;
            }
        }
    }
    assert_eq!(sums[admitted_c] as usize, report.total_tasks);
    assert_eq!(sums[hits_c] as usize, report.hits);
    assert_eq!(sums[misses_c] as usize, report.executed_misses);
    assert_eq!(sums[dropped_c] as usize, report.dropped);
    assert_eq!(sums[lost_c] as usize, report.lost_in_flight);
    assert_eq!(
        (sums[hits_c] + sums[misses_c] + sums[dropped_c] + sums[lost_c]) as usize,
        report.total_tasks,
        "CSV rows must sum to the report's four-way partition"
    );
    assert_eq!(sums[phases_c] as usize, report.phases.len());
    assert_eq!(sums[vertices_c], report.total_vertices());

    // Busy time per processor, split across windows, must reassemble into
    // the platform's own accounting to the microsecond.
    let totals = series.totals();
    for (k, busy) in report.worker_busy.iter().enumerate() {
        assert_eq!(
            totals.busy_us.get(k).copied().unwrap_or(0),
            busy.as_micros(),
            "worker {k} windowed busy time"
        );
    }

    // The same windows render as counter tracks in the Perfetto export.
    perfetto.set_counters(series);
    let mut out = Vec::new();
    perfetto.write_chrome_trace(&mut out, WORKERS).unwrap();
    let chrome = String::from_utf8(out).unwrap();
    assert!(chrome.contains("\"ph\":\"C\""), "no counter samples");
    for k in 0..WORKERS {
        assert!(
            chrome.contains(&format!("\"utilization P{k}\"")),
            "missing utilization counter track for P{k}"
        );
    }
    assert!(chrome.contains("\"queue depth\""));
    assert!(chrome.contains("\"deadline outcomes\""));
}

#[test]
fn traced_runs_are_reproducible_event_for_event() {
    let run = |_: u32| {
        let mut jsonl = JsonlTracer::new(Vec::new());
        let report = driver().run_traced(workload(), &mut jsonl);
        (
            report.hits,
            String::from_utf8(jsonl.finish().unwrap()).unwrap(),
        )
    };
    let (hits_a, trace_a) = run(0);
    let (hits_b, trace_b) = run(1);
    assert_eq!(hits_a, hits_b);
    assert_eq!(
        trace_a, trace_b,
        "same seed must yield a byte-identical trace"
    );

    // Events are emitted as each phase is processed, and completions can
    // outlast the phase that scheduled them, so the stream is only ordered
    // at phase granularity: phase boundaries must be monotone.
    let events = parse_trace(&trace_a).unwrap();
    assert!(!events.is_empty());
    let boundaries: Vec<_> = events
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                TraceEvent::PhaseStarted { .. } | TraceEvent::PhaseEnded { .. }
            )
        })
        .map(|(t, _)| *t)
        .collect();
    assert!(boundaries.len() >= 2);
    assert!(
        boundaries.windows(2).all(|w| w[0] <= w[1]),
        "phase boundaries must be monotone in simulation time"
    );
}

/// Profiling and the overhead probe add their own events and nothing else.
/// On the paper's P=10 workload, with and without faults, the profiled run
/// has the plain run's report and, without its `SchedulerOverhead` and
/// `PhaseProfiled` events, the plain run's trace; and each `PhaseProfiled`
/// directly follows the same phase's `SchedulerOverhead`.
#[test]
fn profiling_adds_only_its_own_events() {
    let paper = |algorithm| {
        DriverConfig::new(10, algorithm)
            .comm(CommModel::constant(Duration::from_millis(2)))
            .host(HostParams::new(Duration::from_micros(1)))
            .seed(SEED)
    };
    // Ext. K's fail-recover run with communication spikes, at SF = 2.
    let recover = FaultConfig::fail_recover(8.0, Duration::from_millis(20)).spikes(
        20.0,
        Duration::from_millis(5),
        Duration::from_millis(1),
        0.2,
    );
    // (config, slack factor, whether the algorithm enters the search).
    let cases = [
        (paper(Algorithm::rt_sads()), 1.0, true),
        (paper(Algorithm::d_cols()), 1.0, true),
        (paper(Algorithm::GreedyEdf), 1.0, false),
        (paper(Algorithm::d_cols()).faults(recover), 2.0, true),
    ];
    for (config, sf, searches) in cases {
        let trace = |config: DriverConfig| {
            let tasks = Scenario::paper_defaults()
                .workers(10)
                .replication_rate(0.3)
                .sf(sf)
                .build(SEED)
                .tasks;
            let mut recorder = RecordingTracer::new();
            let report = Driver::new(config).run_traced(tasks, &mut recorder);
            (report, recorder.into_events())
        };
        let (plain_report, plain) = trace(config.clone());
        let (report, profiled) = trace(config.profile(true).measure_overhead(true));
        assert_eq!(report, plain_report, "profiling moved the report");

        let is_wall = |e: &TraceEvent| {
            matches!(
                e,
                TraceEvent::SchedulerOverhead { .. } | TraceEvent::PhaseProfiled { .. }
            )
        };
        let observed: Vec<_> = profiled
            .iter()
            .filter(|(_, e)| !is_wall(e))
            .cloned()
            .collect();
        assert_eq!(observed, plain, "profiling moved the other events");

        let (mut overheads, mut profiles) = (0, 0);
        let mut previous: Option<&TraceEvent> = None;
        for (_, e) in &profiled {
            match e {
                TraceEvent::SchedulerOverhead { .. } => overheads += 1,
                TraceEvent::PhaseProfiled { phase, .. } => {
                    profiles += 1;
                    assert!(
                        matches!(
                            previous,
                            Some(TraceEvent::SchedulerOverhead { phase: p, .. }) if p == phase
                        ),
                        "phase {phase}'s profile does not follow its overhead"
                    );
                }
                _ => {}
            }
            previous = Some(e);
        }
        assert_eq!(overheads, report.phases.len(), "one overhead per phase");
        assert_eq!(profiles > 0, searches, "profiles only where the search ran");
    }
}
