//! Same behaviour, pinned at paper scale: every run below folds its
//! serialized `RunReport`, and the traced run also its JSONL trace bytes,
//! into a 64-bit FNV-1a digest compared against [`PINNED`]. A digest covers
//! every field at once: each completion, each phase record, the busy and
//! idle totals, the fault tallies.
//!
//! The grid reaches every path a whole run can take: Figure 5's ten points
//! and the P=1024 cluster, the mesh, resources, processor and node faults
//! and open Poisson load, the one-pass baselines, a fixed quantum, a vertex
//! cap and backtrack pruning, and one traced P=10 run with the CLI's full
//! sink set. The fault runs and the random baseline also pin the JSONL
//! bytes their traced twins write, and two profiled runs pin every event
//! but the wall readings. Each run uses the experiments' calibration
//! (`C = 2 ms`, 1 µs per vertex) and seed 1998. So that each variant
//! reaches a path of its own, the platform variants and search limits must
//! differ from their Figure-5 twin, and each fault run must see a fault.
//!
//! A change that moves a digest re-records it in the same commit, and
//! CHANGES.md says which digest moved and why. A failure prints the moved
//! entries in [`PINNED`]'s own syntax.

use rtsads_repro::des::trace::RecordingTracer;
use rtsads_repro::des::{Duration, SimRng, Time};
use rtsads_repro::platform::HostParams;
use rtsads_repro::sads::{Algorithm, Driver, DriverConfig, FaultConfig, QuantumPolicy, RunReport};
use rtsads_repro::task::{CommModel, MeshSpec, Task, TopologySpec};
use rtsads_repro::telemetry::{
    DecisionLedger, JsonlTracer, MetricsCollector, MultiSink, PerfettoTracer, TimeSeriesRecorder,
    TraceEvent, DEFAULT_WINDOW_US,
};
use rtsads_repro::workload::{ArrivalProcess, ResourceProfile, Scenario};

/// The experiments' seed base.
const SEED: u64 = 1_998;

/// The digest of each run, by label.
const PINNED: &[(&str, u64)] = &[
    ("Fig5 RT-SADS P=2", 0x4b873cadccfc8df6),
    ("Fig5 D-COLS P=2", 0x362e3a1cd3babfb8),
    ("Fig5 RT-SADS P=4", 0xb158de6142ab3fdd),
    ("Fig5 D-COLS P=4", 0x583e9f4f00f28e2f),
    ("Fig5 RT-SADS P=6", 0xa6547b6952337c32),
    ("Fig5 D-COLS P=6", 0x71ce68c8742f0387),
    ("Fig5 RT-SADS P=8", 0xec6bccd8d37d77cd),
    ("Fig5 D-COLS P=8", 0x9479ccd98f5b0332),
    ("Fig5 RT-SADS P=10", 0x0888607c0c5cccde),
    ("Fig5 D-COLS P=10", 0xabb38bda920c7957),
    ("cluster RT-SADS P=1024", 0x4db3212eb2e0b678),
    ("mesh RT-SADS P=4", 0x5291c814ca681dd9),
    ("mesh D-COLS P=10", 0xb460c8598b09007c),
    ("Poisson RT-SADS P=10", 0x773718d6a09041bb),
    ("resources RT-SADS P=10", 0x8e7980a06563372f),
    ("fail-stop RT-SADS P=10", 0xd6093bab825e6ed5),
    ("fail-recover spikes D-COLS P=10", 0xe4b2e5621c87c5a1),
    ("node faults RT-SADS P=16", 0x8fea6c8f12666ad3),
    ("Greedy-EDF P=10", 0x509967b091403e50),
    ("Myopic P=10", 0xa6489fe56bb5f070),
    ("Random P=10", 0x866f2e34587b080a),
    ("fixed 5ms RT-SADS P=10", 0x479b4b1949dbe76b),
    ("vertex cap 20 RT-SADS P=10", 0x73253cd1a681f8d0),
    ("backtrack limit 10 RT-SADS P=10", 0x97ca88b525710e89),
    ("traced RT-SADS P=10 JSONL", 0xdd97a7ba1cdb53aa),
    ("fail-stop RT-SADS P=10 JSONL", 0xf171a7d44452bc03),
    ("fail-recover spikes D-COLS P=10 JSONL", 0x8db14863b29edd4d),
    ("node faults RT-SADS P=16 JSONL", 0x259a81a909b6c910),
    ("Random P=10 JSONL", 0x1bf25e3447620138),
    ("profiled RT-SADS P=10 events", 0x0ceb843259f8e444),
    ("profiled D-COLS P=10 events", 0x9ed249d74546723a),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest(report: &RunReport) -> u64 {
    let text = serde_json::to_string(report).expect("a report serializes");
    fnv1a(text.as_bytes())
}

/// Fails listing every run whose digest is not the pinned one.
fn assert_pinned(actual: &[(String, u64)]) {
    let moved: Vec<String> = actual
        .iter()
        .filter(|(label, d)| !PINNED.contains(&(label.as_str(), *d)))
        .map(|(label, d)| format!("    (\"{label}\", {d:#018x}),"))
        .collect();
    assert!(
        moved.is_empty(),
        "digests moved or unpinned:\n{}",
        moved.join("\n")
    );
}

/// Fails when `run` has the digest pinned for `twin`.
fn assert_differs(run: &(String, u64), twin: &str) {
    let pinned = PINNED.iter().find(|(label, _)| *label == twin).unwrap().1;
    assert_ne!(run.1, pinned, "{} runs exactly like {twin}", run.0);
}

/// Section 5.1's workload at paper scale: 1000 transactions, R = 30%,
/// burst arrivals.
fn scenario(workers: usize, sf: f64) -> Scenario {
    Scenario::paper_defaults()
        .workers(workers)
        .replication_rate(0.3)
        .sf(sf)
}

fn tasks(scenario: &Scenario) -> Vec<Task> {
    scenario.build(SEED).tasks
}

/// The calibrated host with communication model `comm`.
fn platform(workers: usize, algorithm: Algorithm, comm: CommModel) -> DriverConfig {
    DriverConfig::new(workers, algorithm)
        .comm(comm)
        .host(HostParams::new(Duration::from_micros(1)))
        .seed(SEED)
}

/// The Figure-5 platform: constant `C = 2 ms`.
fn paper(workers: usize, algorithm: Algorithm) -> DriverConfig {
    platform(
        workers,
        algorithm,
        CommModel::constant(Duration::from_millis(2)),
    )
}

/// Runs `config` on `tasks` and labels the report's digest.
fn run(label: &str, tasks: Vec<Task>, config: DriverConfig) -> (String, u64) {
    let report = Driver::new(config).run(tasks);
    assert!(report.is_consistent(), "{label} breaks the partition");
    (label.to_string(), digest(&report))
}

/// Runs `config` on `tasks` traced into a lone JSONL sink, and returns the
/// report and the trace bytes, header included.
fn run_jsonl(tasks: Vec<Task>, config: DriverConfig) -> (RunReport, Vec<u8>) {
    let mut jsonl = JsonlTracer::new(Vec::new());
    let report = Driver::new(config).run_traced(tasks, &mut jsonl);
    (
        report,
        jsonl.finish().expect("writing to a Vec cannot fail"),
    )
}

#[test]
fn figure5_points_are_pinned() {
    let mut actual = Vec::new();
    for workers in [2, 4, 6, 8, 10] {
        for algorithm in [Algorithm::rt_sads(), Algorithm::d_cols()] {
            let label = format!("Fig5 {} P={workers}", algorithm.name());
            let config = paper(workers, algorithm);
            actual.push(run(&label, tasks(&scenario(workers, 1.0)), config));
        }
    }
    assert_pinned(&actual);
}

#[test]
fn platform_variants_are_pinned() {
    // Ext. L's cluster: 64-processor nodes, four per rack.
    let cluster = CommModel::hierarchical(TopologySpec::new(1_024, 16, 4, 0, 2_000, 4_000));
    // Ext. I's two-row meshes, calibrated to a mean pairwise cost near C
    // at P=10. Under it RT-SADS runs at P=10 exactly as under constant C,
    // so its mesh point is P=4.
    let mesh = |cols| CommModel::mesh(MeshSpec::new(cols, 2, 1_000, 430));
    // Ext. G's open load, at an offered utilization near 0.7.
    let poisson = scenario(10, 1.0).arrivals(ArrivalProcess::Poisson {
        start: Time::ZERO,
        mean_gap: Duration::from_micros(600),
    });
    // Ext. J: half the transactions lock one or two of five resources.
    let locking = ResourceProfile {
        resources: 5,
        participation: 0.5,
        exclusive: 0.5,
        max_per_task: 2,
    }
    .decorate(
        &tasks(&scenario(10, 1.0)),
        &mut SimRng::seed_from(SEED ^ 0xABCD),
    );
    let actual = [
        run(
            "cluster RT-SADS P=1024",
            tasks(&scenario(1_024, 1.0)),
            platform(1_024, Algorithm::rt_sads(), cluster),
        ),
        run(
            "mesh RT-SADS P=4",
            tasks(&scenario(4, 1.0)),
            platform(4, Algorithm::rt_sads(), mesh(2)),
        ),
        run(
            "mesh D-COLS P=10",
            tasks(&scenario(10, 1.0)),
            platform(10, Algorithm::d_cols(), mesh(5)),
        ),
        run(
            "Poisson RT-SADS P=10",
            tasks(&poisson),
            paper(10, Algorithm::rt_sads()),
        ),
        run(
            "resources RT-SADS P=10",
            locking,
            paper(10, Algorithm::rt_sads()),
        ),
    ];
    assert_differs(&actual[1], "Fig5 RT-SADS P=4");
    assert_differs(&actual[2], "Fig5 D-COLS P=10");
    assert_differs(&actual[3], "Fig5 RT-SADS P=10");
    assert_differs(&actual[4], "Fig5 RT-SADS P=10");
    assert_pinned(&actual);
}

#[test]
fn fault_runs_are_pinned() {
    // Ext. K runs at SF = 2.
    let recover = FaultConfig::fail_recover(8.0, Duration::from_millis(20)).spikes(
        20.0,
        Duration::from_millis(5),
        Duration::from_millis(1),
        0.2,
    );
    // Node faults need a topology: 16 processors on 4 nodes in 2 racks.
    let nodes = TopologySpec::new(16, 4, 2, 0, 2_000, 4_000);
    let node_faults = FaultConfig::disabled().node_faults(4.0, Some(Duration::from_millis(10)));
    let runs = [
        (
            "fail-stop RT-SADS P=10",
            scenario(10, 2.0),
            paper(10, Algorithm::rt_sads()).faults(FaultConfig::fail_stop(4.0)),
        ),
        (
            "fail-recover spikes D-COLS P=10",
            scenario(10, 2.0),
            paper(10, Algorithm::d_cols()).faults(recover),
        ),
        (
            "node faults RT-SADS P=16",
            scenario(16, 2.0),
            platform(16, Algorithm::rt_sads(), CommModel::hierarchical(nodes)).faults(node_faults),
        ),
    ];
    let mut actual = Vec::new();
    for (label, scenario, config) in runs {
        let report = Driver::new(config.clone()).run(tasks(&scenario));
        assert!(report.faults_seen > 0, "{label} injects no fault");
        assert!(report.is_consistent(), "{label} breaks the partition");
        // The trace pins the fault, orphan and loss events, spike losses
        // included, and tracing must leave the report as it is.
        let (traced, trace) = run_jsonl(tasks(&scenario), config);
        assert_eq!(traced, report, "tracing moved {label}");
        actual.push((label.to_string(), digest(&report)));
        actual.push((format!("{label} JSONL"), fnv1a(&trace)));
    }
    assert_pinned(&actual);
}

#[test]
fn baselines_and_search_limits_are_pinned() {
    let batch = || tasks(&scenario(10, 1.0));
    let mut actual: Vec<_> = [
        Algorithm::GreedyEdf,
        Algorithm::myopic(),
        Algorithm::RandomAssign,
    ]
    .into_iter()
    .map(|algorithm| {
        let label = format!("{} P=10", algorithm.name());
        run(&label, batch(), paper(10, algorithm))
    })
    .collect();
    let rt_sads = || paper(10, Algorithm::rt_sads());
    let limited = [
        run(
            "fixed 5ms RT-SADS P=10",
            batch(),
            rt_sads().quantum(QuantumPolicy::Fixed(Duration::from_millis(5))),
        ),
        run(
            "vertex cap 20 RT-SADS P=10",
            batch(),
            rt_sads().vertex_cap(Some(20)),
        ),
        run(
            "backtrack limit 10 RT-SADS P=10",
            batch(),
            rt_sads().backtrack_limit(Some(10)),
        ),
    ];
    for limit in &limited {
        assert_differs(limit, "Fig5 RT-SADS P=10");
    }
    actual.extend(limited);
    // A one-pass baseline writes its provenance without the search.
    let (traced, trace) = run_jsonl(batch(), paper(10, Algorithm::RandomAssign));
    actual.push(("Random P=10".to_string(), digest(&traced)));
    actual.push(("Random P=10 JSONL".to_string(), fnv1a(&trace)));
    assert_pinned(&actual);
}

/// The CLI's full sink set (`--metrics-out --trace-out --perfetto-out
/// --timeseries-out --report-out`), without the wall-clock probes that
/// make a trace nondeterministic. The report must equal the untraced
/// Figure-5 run's.
#[test]
fn traced_run_is_pinned() {
    let mut collector = MetricsCollector::new();
    let mut jsonl = JsonlTracer::new(Vec::new());
    let mut perfetto = PerfettoTracer::new();
    let mut timeseries = TimeSeriesRecorder::new(DEFAULT_WINDOW_US);
    let mut ledger = DecisionLedger::new();
    let report = {
        let mut sink = MultiSink::new()
            .with(&mut collector)
            .with(&mut jsonl)
            .with(&mut perfetto)
            .with(&mut timeseries)
            .with(&mut ledger);
        Driver::new(paper(10, Algorithm::rt_sads()))
            .run_traced(tasks(&scenario(10, 1.0)), &mut sink)
    };
    let trace = jsonl.finish().expect("writing to a Vec cannot fail");
    assert!(ledger.counts().is_partition_of(report.total_tasks));
    assert_pinned(&[
        ("Fig5 RT-SADS P=10".to_string(), digest(&report)),
        ("traced RT-SADS P=10 JSONL".to_string(), fnv1a(&trace)),
    ]);
}

/// The profiled runs, with the wall-clock overhead probe on. Wall readings
/// differ between runs, so each event is folded as `"{t_us} {json}\n"` with
/// every `SchedulerOverhead.wall_ns` set to 0 and every `PhaseProfiled`
/// left out: one is emitted only when its wall reading is nonzero, so
/// their count cannot be pinned. The reports must equal the untraced
/// Figure-5 runs'.
#[test]
fn profiled_runs_are_pinned() {
    let mut actual = Vec::new();
    for algorithm in [Algorithm::rt_sads(), Algorithm::d_cols()] {
        let name = algorithm.name().to_string();
        let config = paper(10, algorithm).profile(true).measure_overhead(true);
        let mut recorder = RecordingTracer::new();
        let report = Driver::new(config).run_traced(tasks(&scenario(10, 1.0)), &mut recorder);
        let mut text = String::new();
        for (t, mut event) in recorder.into_events() {
            match &mut event {
                TraceEvent::PhaseProfiled { .. } => continue,
                TraceEvent::SchedulerOverhead { wall_ns, .. } => *wall_ns = 0,
                _ => {}
            }
            let json = serde_json::to_string(&event).expect("an event serializes");
            text.push_str(&format!("{} {json}\n", t.as_micros()));
        }
        actual.push((format!("Fig5 {name} P=10"), digest(&report)));
        actual.push((
            format!("profiled {name} P=10 events"),
            fnv1a(text.as_bytes()),
        ));
    }
    assert_pinned(&actual);
}
