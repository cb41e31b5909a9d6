//! `rtsads-sim` — run one simulation of the paper's system from the command
//! line and print a human-readable report.
//!
//! ```text
//! rtsads-sim [--workers N] [--txns N] [--replication PCT] [--sf X]
//!            [--algorithm rt-sads|d-cols|greedy|myopic|random]
//!            [--comm-us C] [--nodes N] [--racks R] [--inter-rack-cost C2]
//!            [--seed S] [--phases] [--profile]
//!            [--trace-out FILE.jsonl] [--metrics-out FILE.json]
//!            [--perfetto-out FILE.trace.json] [--report-out FILE.json]
//!            [--timeseries-out FILE.csv|.jsonl] [--timeseries-window-us W]
//! rtsads-sim explain --task N --trace FILE.jsonl
//! rtsads-sim timeline --trace FILE.jsonl [--window-us W] [--width N]
//! rtsads-sim profile --trace FILE.jsonl [--folded OUT.txt]
//! rtsads-sim report-diff a.json b.json
//! rtsads-sim bench-snapshot [--out FILE.json] [--phases N] [--allow-dirty]
//! rtsads-sim bench-diff baseline.json new.json [--tolerance FRAC] [--json]
//! ```
//!
//! The `--*-out` flags enable telemetry: a structured JSONL event trace, a
//! metrics summary (counters + p50/p90/p99 histograms), a Chrome
//! trace-event timeline loadable in Perfetto (`ui.perfetto.dev`), and a
//! report file bundling the aggregate counters with per-task decision
//! attributions. Telemetry rides the driver's trace seam, so enabling it
//! never changes simulation results. With `--perfetto-out` the driver also
//! measures each phase's wall-clock scheduling time, shown next to the
//! allocated `Q_s(j)` in the timeline.
//!
//! `--timeseries-out` folds the run into fixed virtual-time windows
//! (admission/outcome rates, per-processor utilization and queue depth,
//! lateness/slack sketches, scheduler overhead) written as CSV — or JSONL
//! when the extension is `.jsonl`. With `--perfetto-out` the same windows
//! also render as counter tracks next to the span tracks.
//!
//! `explain` reconstructs one task's causal chain — admission, screenings
//! with the actual feasibility-test operands, placements with chosen and
//! rejected costs, dispatch, faults, verdict — from a JSONL trace alone.
//! `timeline` folds an existing JSONL trace into the same windows and
//! prints an ASCII sparkline summary in the terminal.
//! `--profile` turns on the search engine's stage-scoped self-profiler:
//! each phase's `PhaseProfiled` record attributes scheduling wall time to
//! the pipeline stages (one per `rtsads_repro::des::trace::Stage`). Like
//! `--perfetto-out` (which implies it, so stage sub-spans appear in the
//! timeline) it measures nondeterministic wall time, so traces stop being
//! byte-reproducible — scheduling *decisions* are unchanged. The `profile`
//! subcommand folds those records back into a per-stage breakdown table
//! and, with `--folded`, a collapsed-stack file flamegraph tools consume.
//! `report-diff` compares two `--report-out` files (counter deltas,
//! lateness-quantile shifts, per-task outcome flips) and exits nonzero on
//! any drift, making it usable as a CI determinism gate. `bench-diff` does
//! the same for two `bench-snapshot` files with a throughput tolerance and
//! a stage-fraction shift gate, making it usable as a CI perf-regression
//! gate; `--json` emits the deltas machine-readably for CI artifacts.

use std::path::PathBuf;
use std::process::ExitCode;

use rtsads_repro::des::{Duration, Time};
use rtsads_repro::explain::{diff_reports, explain_task, ReportFile};
use rtsads_repro::platform::HostParams;
use rtsads_repro::sads::{Algorithm, Driver, DriverConfig, RunReport};
use rtsads_repro::task::{CommModel, TopologySpec};
use rtsads_repro::telemetry::jsonl::parse_trace;
use rtsads_repro::telemetry::{
    DecisionLedger, MetricsRegistry, TelemetrySession, TimeSeriesRecorder, DEFAULT_WINDOW_US,
};
use rtsads_repro::workload::Scenario;

#[derive(Debug)]
struct Args {
    workers: usize,
    txns: usize,
    replication: f64,
    sf: f64,
    algorithm: Algorithm,
    comm_us: u64,
    nodes: usize,
    racks: usize,
    inter_rack_us: Option<u64>,
    seed: u64,
    phases: bool,
    profile: bool,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    perfetto_out: Option<PathBuf>,
    report_out: Option<PathBuf>,
    timeseries_out: Option<PathBuf>,
    timeseries_window_us: u64,
}

fn parse_from(it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workers: 10,
        txns: 1_000,
        replication: 0.3,
        sf: 1.0,
        algorithm: Algorithm::rt_sads(),
        comm_us: 2_000,
        nodes: 1,
        racks: 1,
        inter_rack_us: None,
        seed: 1_998,
        phases: false,
        profile: false,
        trace_out: None,
        metrics_out: None,
        perfetto_out: None,
        report_out: None,
        timeseries_out: None,
        timeseries_window_us: DEFAULT_WINDOW_US,
    };
    let mut it = it;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workers" => {
                args.workers = value("--workers")?.parse().map_err(|e| format!("{e}"))?;
                if args.workers == 0 {
                    return Err("--workers must be positive".to_string());
                }
            }
            "--txns" => {
                args.txns = value("--txns")?.parse().map_err(|e| format!("{e}"))?;
                if args.txns == 0 {
                    return Err("--txns must be positive".to_string());
                }
            }
            "--replication" => {
                let pct: f64 = value("--replication")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                args.replication = if pct > 1.0 { pct / 100.0 } else { pct };
            }
            "--sf" => args.sf = value("--sf")?.parse().map_err(|e| format!("{e}"))?,
            "--comm-us" => {
                args.comm_us = value("--comm-us")?.parse().map_err(|e| format!("{e}"))?
            }
            "--nodes" => {
                args.nodes = value("--nodes")?.parse().map_err(|e| format!("{e}"))?;
                if args.nodes == 0 {
                    return Err("--nodes must be positive".to_string());
                }
            }
            "--racks" => {
                args.racks = value("--racks")?.parse().map_err(|e| format!("{e}"))?;
                if args.racks == 0 {
                    return Err("--racks must be positive".to_string());
                }
            }
            "--inter-rack-cost" => {
                args.inter_rack_us = Some(
                    value("--inter-rack-cost")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--phases" => args.phases = true,
            "--profile" => args.profile = true,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
            "--perfetto-out" => args.perfetto_out = Some(PathBuf::from(value("--perfetto-out")?)),
            "--report-out" => args.report_out = Some(PathBuf::from(value("--report-out")?)),
            "--timeseries-out" => {
                args.timeseries_out = Some(PathBuf::from(value("--timeseries-out")?))
            }
            "--timeseries-window-us" => {
                args.timeseries_window_us = value("--timeseries-window-us")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                if args.timeseries_window_us == 0 {
                    return Err("--timeseries-window-us must be positive".to_string());
                }
            }
            "--algorithm" => {
                args.algorithm = match value("--algorithm")?.as_str() {
                    "rt-sads" => Algorithm::rt_sads(),
                    "d-cols" => Algorithm::d_cols(),
                    "greedy" => Algorithm::GreedyEdf,
                    "myopic" => Algorithm::myopic(),
                    "random" => Algorithm::RandomAssign,
                    other => return Err(format!("unknown algorithm '{other}'")),
                };
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.nodes > args.workers {
        return Err(format!(
            "--nodes ({}) cannot exceed --workers ({})",
            args.nodes, args.workers
        ));
    }
    if args.racks > args.nodes {
        return Err(format!(
            "--racks ({}) cannot exceed --nodes ({})",
            args.racks, args.nodes
        ));
    }
    Ok(args)
}

/// The platform's communication model from the CLI flags: the paper's flat
/// constant-`C` machine by default, or a hierarchical sharded cluster when
/// `--nodes` asks for more than one node (intra-node free, inter-node
/// `--comm-us`, inter-rack `--inter-rack-cost`, defaulting to twice the
/// inter-node cost).
fn comm_model(args: &Args) -> CommModel {
    if args.nodes <= 1 {
        return CommModel::constant(Duration::from_micros(args.comm_us));
    }
    let inter_rack = args.inter_rack_us.unwrap_or(args.comm_us * 2);
    CommModel::hierarchical(TopologySpec::new(
        args.workers as u32,
        args.nodes as u32,
        args.racks as u32,
        0,
        args.comm_us,
        inter_rack.max(args.comm_us),
    ))
}

/// Folds per-worker busy/idle times — which live in the final report, not
/// the event stream — into the metrics registry under stable names.
fn record_worker_metrics(registry: &mut MetricsRegistry, report: &RunReport) {
    let horizon = report.finished_at.saturating_since(Time::ZERO);
    for (k, busy) in report.worker_busy.iter().enumerate() {
        registry.set_gauge(&format!("worker.{k}.busy_us"), busy.as_micros() as f64);
        let idle = horizon.saturating_sub(*busy);
        registry.set_gauge(&format!("worker.{k}.idle_us"), idle.as_micros() as f64);
    }
    // Sharded runs additionally get per-shard (node) totals; flat runs
    // carry no shard breakdown and emit none.
    for (s, busy) in report.shard_busy.iter().enumerate() {
        registry.set_gauge(&format!("shard.{s}.busy_us"), busy.as_micros() as f64);
    }
    for (s, util) in report.shard_utilizations().iter().enumerate() {
        registry.set_gauge(&format!("shard.{s}.utilization"), *util);
    }
}

/// Runs the simulation with the requested telemetry sinks attached and
/// writes the output files.
fn run_with_telemetry(
    args: &Args,
    config: DriverConfig,
    tasks: Vec<rtsads_repro::task::Task>,
) -> Result<RunReport, String> {
    let mut session = TelemetrySession::create(
        args.trace_out.as_deref(),
        args.metrics_out.as_deref(),
        args.perfetto_out.as_deref(),
    )
    .map_err(|e| format!("cannot open telemetry output: {e}"))?;
    if args.timeseries_out.is_some() || args.perfetto_out.is_some() {
        session.enable_timeseries(args.timeseries_out.as_deref(), args.timeseries_window_us);
    }
    let mut ledger = DecisionLedger::new();
    let report = {
        let mut sink = session.sink();
        if args.report_out.is_some() {
            sink = sink.with(&mut ledger);
        }
        Driver::new(config).run_traced(tasks, &mut sink)
    };
    record_worker_metrics(session.registry_mut(), &report);
    let mut written = session
        .finish(args.workers)
        .map_err(|e| format!("cannot write telemetry output: {e}"))?;
    if let Some(path) = &args.report_out {
        let file = ReportFile::new(report.clone(), ledger);
        std::fs::write(path, file.to_json() + "\n")
            .map_err(|e| format!("cannot write report file: {e}"))?;
        written.push(path.clone());
    }
    for path in written {
        eprintln!("# wrote {}", path.display());
    }
    Ok(report)
}

/// `rtsads-sim explain --task N --trace FILE.jsonl`
fn cmd_explain(argv: &[String]) -> Result<(), String> {
    let mut task: Option<u64> = None;
    let mut trace: Option<PathBuf> = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--task" => task = Some(value("--task")?.parse().map_err(|e| format!("{e}"))?),
            "--trace" => trace = Some(PathBuf::from(value("--trace")?)),
            other => return Err(format!("unknown explain flag '{other}'")),
        }
    }
    let task = task.ok_or("explain requires --task N")?;
    let trace = trace.ok_or("explain requires --trace FILE.jsonl")?;
    let text = std::fs::read_to_string(&trace)
        .map_err(|e| format!("cannot read {}: {e}", trace.display()))?;
    let events = parse_trace(&text)?;
    print!("{}", explain_task(&events, task)?);
    Ok(())
}

/// `rtsads-sim timeline --trace FILE.jsonl [--window-us W] [--width N]` —
/// folds an existing JSONL trace into fixed windows and prints an ASCII
/// sparkline summary.
fn cmd_timeline(argv: &[String]) -> Result<(), String> {
    let mut trace: Option<PathBuf> = None;
    let mut window_us = DEFAULT_WINDOW_US;
    let mut width = 72usize;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--trace" => trace = Some(PathBuf::from(value("--trace")?)),
            "--window-us" => {
                window_us = value("--window-us")?.parse().map_err(|e| format!("{e}"))?
            }
            "--width" => width = value("--width")?.parse().map_err(|e| format!("{e}"))?,
            other => return Err(format!("unknown timeline flag '{other}'")),
        }
    }
    if window_us == 0 {
        return Err("--window-us must be positive".to_string());
    }
    let trace = trace.ok_or("timeline requires --trace FILE.jsonl")?;
    let text = std::fs::read_to_string(&trace)
        .map_err(|e| format!("cannot read {}: {e}", trace.display()))?;
    let mut recorder = TimeSeriesRecorder::new(window_us);
    {
        use rtsads_repro::telemetry::TraceSink;
        for (ts, event) in parse_trace(&text)? {
            recorder.emit(ts, event);
        }
    }
    let series = recorder.finish();
    print!("{}", series.render_timeline(width.max(8)));
    Ok(())
}

/// `rtsads-sim profile --trace FILE.jsonl [--folded OUT.txt]` — folds a
/// trace's `PhaseProfiled` records into one per-stage wall-time breakdown:
/// stage, attributed nanoseconds, and the fraction of the attributed total.
/// It fails when the trace does not parse, carries no `PhaseProfiled`
/// records, or attributes zero time. `--folded` writes collapsed-stack
/// lines (`scheduler;search;<stage> <ns>`) for flamegraph tooling.
fn cmd_profile(argv: &[String]) -> Result<(), String> {
    use rtsads_repro::des::trace::{PhaseProfile, Stage, TraceEvent};
    let mut trace: Option<PathBuf> = None;
    let mut folded: Option<PathBuf> = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--trace" => trace = Some(PathBuf::from(value("--trace")?)),
            "--folded" => folded = Some(PathBuf::from(value("--folded")?)),
            other => return Err(format!("unknown profile flag '{other}'")),
        }
    }
    let trace = trace.ok_or("profile requires --trace FILE.jsonl")?;
    let text = std::fs::read_to_string(&trace)
        .map_err(|e| format!("cannot read {}: {e}", trace.display()))?;
    let mut total = PhaseProfile::default();
    let mut phases = 0u64;
    for (_, event) in parse_trace(&text)? {
        if let TraceEvent::PhaseProfiled { profile, .. } = event {
            phases += 1;
            for stage in Stage::ALL {
                total[stage] += profile[stage];
            }
        }
    }
    if phases == 0 {
        return Err(format!(
            "{} has no PhaseProfiled records; re-run the simulation with \
             --profile --trace-out",
            trace.display()
        ));
    }
    let grand = total.total_ns();
    if grand == 0 {
        return Err("PhaseProfiled records attribute zero time".to_string());
    }
    println!(
        "profiled {phases} phases, {:.3} ms attributed",
        grand as f64 / 1e6
    );
    println!("{:<8} {:>14} {:>10}", "stage", "ns", "fraction");
    for (name, ns) in total.stages() {
        let frac = ns as f64 / grand as f64;
        println!("{name:<8} {ns:>14} {frac:>10.4}");
    }
    println!("{:<8} {:>14} {:>10.4}", "total", grand, 1.0);
    if let Some(path) = folded {
        let mut out = String::new();
        for (name, ns) in total.stages() {
            out.push_str(&format!("scheduler;search;{name} {ns}\n"));
        }
        std::fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("# wrote {}", path.display());
    }
    Ok(())
}

/// `rtsads-sim bench-snapshot [--out FILE.json] [--phases N]
/// [--allow-dirty]` — measures search throughput at the canonical scenario
/// points and writes the tracked baseline (`BENCH_search.json` by
/// default). Refuses to overwrite the committed baseline from a dirty tree
/// unless `--allow-dirty` is passed; either way the flag's value is
/// recorded in the snapshot manifest. An earlier regeneration of the output
/// file, as the tree's only change, does not make it dirty.
fn cmd_bench_snapshot(argv: &[String]) -> Result<(), String> {
    use rtsads_repro::snapshot;
    let mut out = PathBuf::from("BENCH_search.json");
    let mut phases = snapshot::DEFAULT_MEASURED;
    let mut allow_dirty = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--out" => out = PathBuf::from(value("--out")?),
            "--phases" => phases = value("--phases")?.parse().map_err(|e| format!("{e}"))?,
            "--allow-dirty" => allow_dirty = true,
            other => return Err(format!("unknown bench-snapshot flag '{other}'")),
        }
    }
    let describe = snapshot::describe_for(&out);
    if out.file_name().is_some_and(|n| n == "BENCH_search.json") {
        snapshot::dirty_guard(describe.as_deref(), allow_dirty)?;
    }
    let mut snap = snapshot::collect(phases);
    snap.manifest.git_describe = describe;
    snap.manifest
        .extra
        .insert("allow_dirty".to_string(), allow_dirty.to_string());
    for p in &snap.points {
        println!(
            "{:>14}: {:>10.0} phases/s  {:>12.0} vertices/s  {:>12.0} undos/s",
            p.name, p.phases_per_sec, p.vertices_per_sec, p.undos_per_sec
        );
    }
    std::fs::write(&out, snap.to_json())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!("# wrote {}", out.display());
    Ok(())
}

/// `rtsads-sim bench-diff baseline.json new.json [--tolerance FRAC]
/// [--json]` — compares two `bench-snapshot` files; returns `Ok(false)`
/// (nonzero exit) when throughput dropped past the tolerance or a stage
/// fraction shifted structurally on any point. `--json` swaps the
/// human-readable table for machine-readable per-point deltas plus the
/// verdict; the exit code is the same either way.
fn cmd_bench_diff(argv: &[String]) -> Result<bool, String> {
    use rtsads_repro::snapshot::{self, BenchSnapshot};
    let mut files: Vec<&String> = Vec::new();
    let mut tolerance = snapshot::DEFAULT_TOLERANCE;
    let mut json = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => json = true,
            "--tolerance" => {
                tolerance = it
                    .next()
                    .ok_or("--tolerance needs a value")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                if !(0.0..1.0).contains(&tolerance) {
                    return Err("--tolerance must be a fraction in [0, 1)".to_string());
                }
            }
            _ => files.push(flag),
        }
    }
    let [base, new] = files[..] else {
        return Err("bench-diff takes exactly two snapshot files".to_string());
    };
    let read = |p: &String| -> Result<BenchSnapshot, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        BenchSnapshot::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let diff = snapshot::diff_snapshots(&read(base)?, &read(new)?, tolerance);
    if json {
        print!("{}", diff.to_json());
    } else {
        print!("{}", diff.render());
    }
    Ok(!diff.has_regression())
}

/// `rtsads-sim report-diff a.json b.json` — exits nonzero on drift.
fn cmd_report_diff(argv: &[String]) -> Result<bool, String> {
    let [a, b] = argv else {
        return Err("report-diff takes exactly two report files".to_string());
    };
    let read = |p: &String| -> Result<ReportFile, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        ReportFile::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let diff = diff_reports(&read(a)?, &read(b)?);
    print!("{}", diff.render());
    Ok(diff.is_drift_free())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("explain") => {
            return match cmd_explain(&argv[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    eprintln!("usage: rtsads-sim explain --task N --trace FILE.jsonl");
                    ExitCode::FAILURE
                }
            };
        }
        Some("report-diff") => {
            return match cmd_report_diff(&argv[1..]) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    eprintln!("usage: rtsads-sim report-diff a.json b.json");
                    ExitCode::FAILURE
                }
            };
        }
        Some("timeline") => {
            return match cmd_timeline(&argv[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    eprintln!(
                        "usage: rtsads-sim timeline --trace FILE.jsonl [--window-us W] [--width N]"
                    );
                    ExitCode::FAILURE
                }
            };
        }
        Some("profile") => {
            return match cmd_profile(&argv[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    eprintln!("usage: rtsads-sim profile --trace FILE.jsonl [--folded OUT.txt]");
                    ExitCode::FAILURE
                }
            };
        }
        Some("bench-snapshot") => {
            return match cmd_bench_snapshot(&argv[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    eprintln!(
                        "usage: rtsads-sim bench-snapshot [--out FILE.json] [--phases N] \
                         [--allow-dirty]"
                    );
                    ExitCode::FAILURE
                }
            };
        }
        Some("bench-diff") => {
            return match cmd_bench_diff(&argv[1..]) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    eprintln!(
                        "usage: rtsads-sim bench-diff baseline.json new.json \
                         [--tolerance FRAC] [--json]"
                    );
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let args = match parse_from(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: rtsads-sim [--workers N] [--txns N] [--replication PCT] [--sf X] \
                 [--algorithm rt-sads|d-cols|greedy|myopic|random] [--comm-us C] \
                 [--nodes N] [--racks R] [--inter-rack-cost C2] [--seed S] \
                 [--phases] [--profile] [--trace-out FILE.jsonl] [--metrics-out FILE.json] \
                 [--perfetto-out FILE.trace.json] [--report-out FILE.json] \
                 [--timeseries-out FILE.csv|.jsonl] [--timeseries-window-us W]\n\
                        rtsads-sim explain --task N --trace FILE.jsonl\n\
                        rtsads-sim timeline --trace FILE.jsonl [--window-us W] [--width N]\n\
                        rtsads-sim profile --trace FILE.jsonl [--folded OUT.txt]\n\
                        rtsads-sim report-diff a.json b.json\n\
                        rtsads-sim bench-diff baseline.json new.json [--tolerance FRAC] [--json]"
            );
            return ExitCode::FAILURE;
        }
    };

    let scenario = Scenario::paper_defaults()
        .workers(args.workers)
        .transactions(args.txns)
        .replication_rate(args.replication)
        .sf(args.sf);
    if let Err(msg) = scenario.validate() {
        eprintln!("error: {msg}");
        return ExitCode::FAILURE;
    }
    let built = scenario.build(args.seed);
    let config = DriverConfig::new(args.workers, args.algorithm.clone())
        .comm(comm_model(&args))
        .host(HostParams::new(Duration::from_micros(1)))
        .seed(args.seed)
        // The timeline gets measured scheduling wall time next to Q_s(j);
        // wall time is nondeterministic, so only measure when asked for a
        // timeline (JSONL traces stay byte-reproducible otherwise).
        .measure_overhead(args.perfetto_out.is_some())
        // Stage-level attribution on request — and whenever a Perfetto
        // timeline is written, so phase spans get their stage sub-spans.
        .profile(args.profile || args.perfetto_out.is_some());

    let telemetry_on = args.trace_out.is_some()
        || args.metrics_out.is_some()
        || args.perfetto_out.is_some()
        || args.report_out.is_some();
    if args.profile && !telemetry_on {
        eprintln!(
            "note: --profile needs a sink to land in; add --trace-out FILE.jsonl \
             and inspect it with `rtsads-sim profile --trace FILE.jsonl`"
        );
    }
    let report = if telemetry_on {
        match run_with_telemetry(&args, config, built.tasks) {
            Ok(report) => report,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Driver::new(config).run(built.tasks)
    };

    println!(
        "{} on {} workers | {} transactions, R={:.0}%, SF={}, C={}us, seed {}",
        report.algorithm,
        args.workers,
        report.total_tasks,
        args.replication * 100.0,
        args.sf,
        args.comm_us,
        args.seed
    );
    if args.nodes > 1 {
        println!(
            "  topology           {:>6} nodes x {} racks (inter-rack {}us), \
             {} shard utilizations tracked",
            args.nodes,
            args.racks,
            args.inter_rack_us.unwrap_or(args.comm_us * 2),
            report.shard_busy.len()
        );
    }
    println!(
        "  deadline hits      {:>6} / {} ({:.1}%)",
        report.hits,
        report.total_tasks,
        report.hit_ratio() * 100.0
    );
    println!("  dropped (expired)  {:>6}", report.dropped);
    println!(
        "  theorem check      {:>6} scheduled tasks missed (must be 0)",
        report.executed_misses
    );
    println!(
        "  phases             {:>6} ({} dead-ends, {} backtracks, {} vertices)",
        report.phases.len(),
        report.dead_end_phases(),
        report.total_backtracks(),
        report.total_vertices()
    );
    println!(
        "  scheduling time    {:>6.1} ms virtual",
        report.total_scheduling_time().as_millis_f64()
    );
    if let Some(rt) = report.mean_response_time(true) {
        println!(
            "  mean response      {:>6.1} ms after delivery",
            rt.as_millis_f64()
        );
    }
    if let (Some(imbalance), Some((min, mean, max))) =
        (report.load_imbalance(), report.utilization_summary())
    {
        println!(
            "  workers            {:>6} used, busy fraction {:.1}%..{:.1}% (mean {:.1}%), \
             imbalance {imbalance:.2}x",
            report.workers_used,
            min * 100.0,
            max * 100.0,
            mean * 100.0
        );
    }
    println!("  finished at        {}", report.finished_at);

    if args.phases {
        println!(
            "\n  {:>5} {:>10} {:>6} {:>10} {:>10} {:>6} {:>6}",
            "phase", "t_s", "batch", "Q_s", "used", "sched", "drop"
        );
        for p in report.phases.iter().take(40) {
            println!(
                "  {:>5} {:>10} {:>6} {:>10} {:>10} {:>6} {:>6}",
                p.phase,
                p.started.to_string(),
                p.batch_len,
                p.quantum.to_string(),
                p.consumed.to_string(),
                p.scheduled,
                p.dropped
            );
        }
        if report.phases.len() > 40 {
            println!("  ... ({} phases total)", report.phases.len());
        }
    }
    if report.executed_misses > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(argv: &[&str]) -> Result<Args, String> {
        parse_from(argv.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn defaults_parse_without_flags() {
        let args = parse_strs(&[]).expect("defaults");
        assert_eq!(args.workers, 10);
        assert_eq!(args.txns, 1_000);
    }

    #[test]
    fn zero_workers_is_an_error_not_a_panic() {
        let err = parse_strs(&["--workers", "0"]).expect_err("rejected");
        assert_eq!(err, "--workers must be positive");
    }

    #[test]
    fn topology_flags_parse_and_validate() {
        let args = parse_strs(&[
            "--workers",
            "16",
            "--nodes",
            "4",
            "--racks",
            "2",
            "--inter-rack-cost",
            "5000",
        ])
        .expect("parses");
        assert_eq!((args.nodes, args.racks), (4, 2));
        assert_eq!(args.inter_rack_us, Some(5_000));
        let topo = *comm_model(&args).topology().expect("hierarchical");
        assert_eq!((topo.workers(), topo.nodes(), topo.racks()), (16, 4, 2));
        assert_eq!(topo.inter_rack_cost(), Duration::from_micros(5_000));

        assert!(parse_strs(&["--workers", "4", "--nodes", "8"]).is_err());
        assert!(parse_strs(&["--nodes", "2", "--racks", "3"]).is_err());
        assert!(parse_strs(&["--nodes", "0"]).is_err());
    }

    #[test]
    fn single_node_keeps_the_flat_constant_model() {
        let args = parse_strs(&["--comm-us", "1500"]).expect("parses");
        let comm = comm_model(&args);
        assert!(comm.topology().is_none(), "1 node stays flat");
        // A defaulted inter-rack cost below the inter-node cost is clamped
        // up so the hierarchy's cost monotonicity holds.
        let sharded = parse_strs(&["--nodes", "2", "--inter-rack-cost", "10"]).expect("parses");
        let topo = *comm_model(&sharded).topology().expect("hierarchical");
        assert_eq!(topo.inter_rack_cost(), topo.inter_node_cost());
    }

    #[test]
    fn zero_txns_is_an_error_not_a_panic() {
        let err = parse_strs(&["--txns", "0"]).expect_err("rejected");
        assert_eq!(err, "--txns must be positive");
    }

    #[test]
    fn zero_search_threads_is_an_error() {
        // The parallel search engine is gone; a script still passing its
        // flag, at any width, must fail rather than silently run serially.
        for width in ["0", "2"] {
            let err = parse_strs(&["--search-threads", width]).expect_err("rejected");
            assert_eq!(err, "unknown flag '--search-threads'");
        }
    }

    #[test]
    fn profile_flag_parses_and_defaults_off() {
        assert!(!parse_strs(&[]).expect("defaults").profile);
        let args = parse_strs(&["--profile", "--trace-out", "run.jsonl"]).expect("parses");
        assert!(args.profile);
        assert!(args.trace_out.is_some());
    }

    #[test]
    fn degenerate_scenario_from_cli_values_fails_validation() {
        // Even if a zero sneaks past flag parsing (e.g. a future flag), the
        // scenario boundary catches it before `build` can panic.
        let scenario = Scenario::paper_defaults().workers(10).transactions(0);
        assert!(scenario.validate().is_err());
    }
}
