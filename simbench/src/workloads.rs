//! The three workloads: which simulations each one runs, how one simulation
//! is executed (plain or with the CLI's telemetry sinks), and the
//! reference outcome every timed run is checked against.

use std::time::Instant;

use rtsads_repro::des::Duration;
use rtsads_repro::platform::HostParams;
use rtsads_repro::sads::{Algorithm, Driver, DriverConfig, RunReport};
use rtsads_repro::task::{CommModel, Task, TopologySpec};
use rtsads_repro::telemetry::{
    DecisionLedger, JsonlTracer, MetricsCollector, MultiSink, TimeSeries, TimeSeriesRecorder,
    DEFAULT_WINDOW_US,
};
use rtsads_repro::workload::Scenario;

/// One simulation configuration; the seed is supplied per run.
pub struct Point {
    pub label: String,
    pub scenario: Scenario,
    pub driver: DriverConfig,
}

/// A named workload: a fixed cycle of simulations `i = 0..runs`, where
/// simulation `i` runs point `i % points.len()` with seed `base + i`.
pub struct Workload {
    pub name: &'static str,
    pub points: Vec<Point>,
    /// Size of the fixed simulation set. Timed passes replay this set in
    /// whole cycles, so exact counts and the hit ratio do not depend on how
    /// many cycles fit in the time budget.
    pub runs: usize,
    /// Whether each simulation carries the CLI's telemetry sink set.
    pub telemetry: bool,
    /// Parameters recorded in the run manifest.
    pub params: Vec<(&'static str, String)>,
}

pub const NAMES: [&str; 3] = ["paper_burst", "sharded_burst", "traced_burst"];

/// The Figure-5 platform: constant `C = 2 ms`, 1 µs of scheduling time per
/// generated vertex (the experiments' calibration).
fn paper_driver(workers: usize, algorithm: Algorithm) -> DriverConfig {
    DriverConfig::new(workers, algorithm)
        .comm(CommModel::constant(Duration::from_millis(2)))
        .host(HostParams::new(Duration::from_micros(1)))
}

fn paper_scenario(workers: usize) -> Scenario {
    Scenario::paper_defaults()
        .workers(workers)
        .replication_rate(0.3)
        .sf(1.0)
}

fn paper_point(workers: usize, algorithm: Algorithm) -> Point {
    Point {
        label: format!("{} P={workers}", algorithm.name()),
        scenario: paper_scenario(workers),
        driver: paper_driver(workers, algorithm),
    }
}

/// The Ext. L sharded cluster: 64-processor nodes, four nodes per rack,
/// intra-node free, inter-node 2 ms, inter-rack 4 ms.
fn sharded_point(workers: usize, nodes: u32, racks: u32) -> Point {
    let topology = TopologySpec::new(workers as u32, nodes, racks, 0, 2_000, 4_000);
    Point {
        label: format!("RT-SADS P={workers} {nodes} nodes x {racks} racks"),
        scenario: paper_scenario(workers),
        driver: DriverConfig::new(workers, Algorithm::rt_sads())
            .comm(CommModel::hierarchical(topology))
            .host(HostParams::new(Duration::from_micros(1))),
    }
}

impl Workload {
    /// The workload called `name`, or `None` for an unknown name.
    pub fn named(name: &str) -> Option<Workload> {
        let common = |extra: &[(&'static str, &str)]| {
            let mut params = vec![
                ("transactions_per_run", "1000".to_string()),
                ("replication_rate", "0.3".to_string()),
                ("vertex_cost_us", "1".to_string()),
            ];
            params.extend(extra.iter().map(|&(k, v)| (k, v.to_string())));
            params
        };
        let workload = match name {
            "paper_burst" => Workload {
                name: "paper_burst",
                points: [2, 4, 6, 8, 10]
                    .into_iter()
                    .flat_map(|p| {
                        [
                            paper_point(p, Algorithm::rt_sads()),
                            paper_point(p, Algorithm::d_cols()),
                        ]
                    })
                    .collect(),
                runs: 100,
                telemetry: false,
                params: common(&[
                    ("processors", "2,4,6,8,10"),
                    ("algorithms", "RT-SADS,D-COLS"),
                    ("arrivals", "burst at t=0"),
                    ("sf", "1"),
                    ("comm", "constant C=2000us"),
                ]),
            },
            "sharded_burst" => Workload {
                name: "sharded_burst",
                points: vec![sharded_point(1_024, 16, 4)],
                runs: 100,
                telemetry: false,
                params: common(&[
                    ("processors", "1024 (16 nodes x 4 racks)"),
                    ("algorithms", "RT-SADS"),
                    ("arrivals", "burst at t=0"),
                    ("sf", "1"),
                    (
                        "comm",
                        "hierarchical intra-node 0us, inter-node 2000us, inter-rack 4000us",
                    ),
                ]),
            },
            "traced_burst" => Workload {
                name: "traced_burst",
                points: vec![paper_point(10, Algorithm::rt_sads())],
                runs: 100,
                telemetry: true,
                params: common(&[
                    ("processors", "10"),
                    ("algorithms", "RT-SADS"),
                    ("arrivals", "burst at t=0"),
                    ("sf", "1"),
                    ("comm", "constant C=2000us"),
                    (
                        "sinks",
                        "JsonlTracer (in-memory), MetricsCollector, TimeSeriesRecorder, DecisionLedger",
                    ),
                ]),
            },
            _ => return None,
        };
        Some(workload)
    }

    /// The point and seed of simulation `i` under seed base `base`.
    pub fn simulation(&self, i: usize, base: u64) -> (usize, u64) {
        (i % self.points.len(), base.wrapping_add(i as u64))
    }

    /// The driver configuration of one simulation.
    pub fn config(&self, input: &Input) -> DriverConfig {
        self.points[input.point].driver.clone().seed(input.seed)
    }

    /// Builds every input of the fixed simulation set.
    pub fn build_inputs(&self, base: u64) -> Vec<Input> {
        (0..self.runs)
            .map(|i| {
                let (point, seed) = self.simulation(i, base);
                Input {
                    point,
                    seed,
                    tasks: self.points[point].scenario.build(seed).tasks,
                }
            })
            .collect()
    }
}

/// The materialized tasks of one simulation.
pub struct Input {
    pub point: usize,
    pub seed: u64,
    pub tasks: Vec<Task>,
}

/// The CLI's sink set (`rtsads_sim --trace-out --metrics-out --report-out
/// --timeseries-out`), with the JSONL trace kept in memory.
pub struct Telemetry {
    pub collector: MetricsCollector,
    pub jsonl: JsonlTracer<Vec<u8>>,
    pub timeseries: TimeSeriesRecorder,
    pub ledger: DecisionLedger,
}

/// What a telemetry run leaves behind, checked after the timed region.
pub struct TelemetryOut {
    pub jsonl: Vec<u8>,
    pub lines: u64,
    pub ledger: DecisionLedger,
    /// Wall time of the JSONL and time-series flushes, in nanoseconds.
    pub jsonl_flush_ns: u64,
    pub timeseries_flush_ns: u64,
    // Held so that their memory is freed after the clock stops.
    _series: TimeSeries,
    _collector: MetricsCollector,
}

impl Telemetry {
    pub fn new() -> Self {
        Telemetry {
            collector: MetricsCollector::new(),
            jsonl: JsonlTracer::new(Vec::new()),
            timeseries: TimeSeriesRecorder::new(DEFAULT_WINDOW_US),
            ledger: DecisionLedger::new(),
        }
    }

    /// Flushes every sink, as the CLI does when the run ends.
    pub fn finish(self) -> TelemetryOut {
        let lines = self.jsonl.lines();
        let started = Instant::now();
        let jsonl = self
            .jsonl
            .finish()
            .expect("writing to a Vec<u8> cannot fail");
        let jsonl_flush_ns = elapsed_ns(started);
        let started = Instant::now();
        let series = self.timeseries.finish();
        TelemetryOut {
            jsonl,
            lines,
            ledger: self.ledger,
            jsonl_flush_ns,
            timeseries_flush_ns: elapsed_ns(started),
            _series: series,
            _collector: self.collector,
        }
    }
}

pub fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one simulation with the CLI's sinks fanned out in the CLI's order.
pub fn run_with_telemetry(config: DriverConfig, tasks: Vec<Task>) -> (RunReport, TelemetryOut) {
    let mut telemetry = Telemetry::new();
    let report = {
        let mut sink = MultiSink::new()
            .with(&mut telemetry.collector)
            .with(&mut telemetry.jsonl)
            .with(&mut telemetry.timeseries)
            .with(&mut telemetry.ledger);
        Driver::new(config).run_traced(tasks, &mut sink)
    };
    (report, telemetry.finish())
}

/// The expected outcome of one simulation, from the set-up pass.
#[derive(PartialEq)]
pub struct Reference {
    /// The untraced report; every later run of this seed must equal it.
    pub report: RunReport,
    /// Telemetry workloads only: digest, event lines and bytes of the JSONL
    /// trace, and the screen probes the ledger recorded.
    pub jsonl_digest: Option<u64>,
    pub jsonl_lines: u64,
    pub jsonl_bytes: u64,
    pub screen_probes: u64,
}

/// Checks every run must pass, whatever pass it belongs to. No workload
/// injects faults, so the paper's theorem applies: no executed task misses.
pub fn report_ok(report: &RunReport) -> bool {
    report.is_consistent() && report.executed_misses == 0
}

/// Checks a telemetry run's by-products: the ledger must partition the
/// run's tasks exactly.
pub fn telemetry_ok(out: &TelemetryOut, report: &RunReport) -> bool {
    out.ledger.counts().is_partition_of(report.total_tasks)
}

/// Runs simulation `input` untimed and records its reference outcome.
/// Returns the reference and whether its own checks passed; on telemetry
/// workloads the sink-attached report must equal the plain one.
pub fn reference(workload: &Workload, input: &Input) -> (Reference, bool) {
    let config = workload.config(input);
    let report = Driver::new(config.clone()).run(input.tasks.clone());
    let mut ok = report_ok(&report);
    let mut reference = Reference {
        report,
        jsonl_digest: None,
        jsonl_lines: 0,
        jsonl_bytes: 0,
        screen_probes: 0,
    };
    if workload.telemetry {
        let (traced, out) = run_with_telemetry(config, input.tasks.clone());
        ok &= traced == reference.report && telemetry_ok(&out, &traced);
        reference.jsonl_digest = Some(fnv1a(&out.jsonl));
        reference.jsonl_lines = out.lines;
        reference.jsonl_bytes = out.jsonl.len() as u64;
        reference.screen_probes = out
            .ledger
            .dossiers()
            .flat_map(|d| &d.screenings)
            .map(|s| s.probes.len() as u64)
            .sum();
    }
    (reference, ok)
}

/// 64-bit FNV-1a: a stable digest for determinism checks and the manifest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
