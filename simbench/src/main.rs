//! `simbench` — the end-to-end benchmark of the RT-SADS reproduction.
//!
//! ```text
//! simbench --workload NAME [--seed BASE] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs complete simulations (`Scenario::build` → `Driver::run`) back to
//! back in one thread, a closed loop with one client, each with a fresh
//! `Driver`. `--trace 0` measures the end-to-end metrics from untraced
//! runs; `--trace 1` adds a traced pass that attributes each run to the
//! layers and prints the per-layer metrics. The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `README.md` beside this package for the workloads, the
//! metric table and the caveats.

mod affinity;
mod layers;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rtsads_repro::sads::Driver;
use serde_json::Value;

use affinity::Cpus;
use layers::{LayerTracer, RunTrace, Span, SINKS, STAGES};
use workloads::{
    elapsed_ns, fnv1a, reference, report_ok, run_with_telemetry, telemetry_ok, Input, Reference,
    Telemetry, Workload, NAMES,
};

/// The seed base used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1_998;
const DEFAULT_SECONDS: f64 = 10.0;
/// Set-up runs this many times in every invocation; `setup_s` is the median.
/// An even count on two CPUs puts one repetition from each CPU in the
/// middle, so the median does not follow a single CPU's contention.
const SETUP_REPEATS: usize = 4;

/// A metric the benchmark prints: name, unit, and whether it is an exact
/// count that must repeat bit-for-bit for the same seed base.
type Metric = (&'static str, &'static str, bool);

const END_TO_END: [Metric; 6] = [
    ("tasks_per_s", "1/s", false),
    ("run_ms_p50", "ms", false),
    ("run_ms_p90", "ms", false),
    ("setup_s", "s", false),
    ("peak_rss_mb", "MB", false),
    ("hit_ratio", "ratio", true),
];

const PER_LAYER: [Metric; 35] = [
    ("workload.build_ms_p50", "ms", false),
    ("core.phases_per_run", "count", true),
    ("core.dropped_per_run", "count", true),
    ("core.sched_virtual_ms_per_run", "virtual_ms", true),
    ("core.self_ms_per_run", "ms", false),
    ("core.self_ns_per_phase", "ns", false),
    ("search.vertices_per_run", "count", true),
    ("search.backtracks_per_run", "count", true),
    ("search.undos_per_run", "count", true),
    ("search.dead_end_phases_per_run", "count", true),
    ("search.wall_ms_per_run", "ms", false),
    ("search.ns_per_vertex", "ns", false),
    ("search.phase_wall_us_p50", "us", false),
    ("search.phase_wall_us_p99", "us", false),
    ("search.stage.screen", "share", false),
    ("search.stage.fill", "share", false),
    ("search.stage.cost", "share", false),
    ("search.stage.select", "share", false),
    ("search.stage.shard", "share", false),
    ("search.stage.apply", "share", false),
    ("search.stage.undo", "share", false),
    ("search.stage.merge", "share", false),
    ("search.quantum_overrun_ratio", "ratio", false),
    ("platform.completions_per_run", "count", true),
    ("platform.busy_fraction_mean", "ratio", true),
    ("telemetry.events_per_task", "count", true),
    ("telemetry.jsonl_bytes_per_task", "B", true),
    ("telemetry.screen_probes_per_run", "count", true),
    ("telemetry.collector.ns_per_event", "ns", false),
    ("telemetry.jsonl.ns_per_event", "ns", false),
    ("telemetry.timeseries.ns_per_event", "ns", false),
    ("telemetry.ledger.ns_per_event", "ns", false),
    ("telemetry.overhead_x", "x", false),
    ("bench.trace_overhead_x", "x", false),
    ("bench.layer_share_residual", "share", false),
];

const PROVENANCE_CAVEAT: &str = "any enabled sink also turns on decision provenance \
     (the driver passes tracer.enabled() into schedule_phase), so the traced pass's \
     search.stage.screen share is inflated; bench.trace_overhead_x records by how much";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3_600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// Inputs and reference outcomes of the fixed simulation set.
struct Setup {
    inputs: Vec<Input>,
    refs: Vec<Reference>,
    seconds: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Builds every input and runs the warm-up pass `SETUP_REPEATS` times, on
/// the allowed CPUs in turn. Each repetition must reproduce the first one
/// exactly.
fn setup(workload: &Workload, base: u64, cpus: &Cpus) -> Setup {
    let mut first: Option<(Vec<Input>, Vec<Reference>)> = None;
    let mut seconds = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for repetition in 0..SETUP_REPEATS {
        cpus.pin(repetition);
        let started = Instant::now();
        let inputs = workload.build_inputs(base);
        let mut refs = Vec::with_capacity(inputs.len());
        for input in &inputs {
            let (r, ok) = reference(workload, input);
            attempted += 1;
            failed += u64::from(!ok);
            refs.push(r);
        }
        seconds.push(started.elapsed().as_secs_f64());
        match &first {
            Some((_, first_refs)) => failed += u64::from(*first_refs != refs),
            None => first = Some((inputs, refs)),
        }
    }
    cpus.release();
    let (inputs, refs) = first.expect("SETUP_REPEATS is positive");
    Setup {
        inputs,
        refs,
        seconds,
        attempted,
        failed,
    }
}

/// Timings of the untraced pass: `replays[i]` holds every wall time of
/// simulation `i`, one per cycle over the fixed set.
#[derive(Default)]
struct Untraced {
    replays: Vec<Vec<u64>>,
    cycles: usize,
    /// Plain (sink-free) runs of the same seeds, on telemetry workloads in
    /// the traced invocation only.
    plain_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
}

impl Untraced {
    fn run_ns(&self) -> impl Iterator<Item = u64> + '_ {
        self.replays.iter().flatten().copied()
    }
}

/// Replays the fixed simulation set in whole cycles, each on the next
/// allowed CPU, until `budget_s` has passed. Every run is checked against
/// its reference.
fn untraced_pass(
    workload: &Workload,
    setup: &Setup,
    cpus: &Cpus,
    budget_s: f64,
    with_plain: bool,
) -> Untraced {
    let mut out = Untraced {
        replays: vec![Vec::new(); setup.inputs.len()],
        ..Untraced::default()
    };
    let pass = Instant::now();
    while out.cycles == 0 || pass.elapsed().as_secs_f64() < budget_s {
        cpus.pin(out.cycles);
        for ((input, reference), replays) in
            setup.inputs.iter().zip(&setup.refs).zip(&mut out.replays)
        {
            let config = workload.config(input);
            let tasks = input.tasks.clone();
            let ok = if workload.telemetry {
                let t0 = Instant::now();
                let (report, telemetry) = run_with_telemetry(config.clone(), tasks);
                replays.push(elapsed_ns(t0));
                report == reference.report
                    && report_ok(&report)
                    && telemetry_ok(&telemetry, &report)
                    && Some(fnv1a(&telemetry.jsonl)) == reference.jsonl_digest
            } else {
                let t0 = Instant::now();
                let report = Driver::new(config.clone()).run(tasks);
                replays.push(elapsed_ns(t0));
                report == reference.report && report_ok(&report)
            };
            out.attempted += 1;
            out.failed += u64::from(!ok);
            if with_plain {
                let tasks = input.tasks.clone();
                let t0 = Instant::now();
                let report = Driver::new(config).run(tasks);
                out.plain_ns.push(elapsed_ns(t0));
                out.attempted += 1;
                out.failed += u64::from(report != reference.report);
            }
        }
        out.cycles += 1;
    }
    cpus.release();
    out
}

/// Each simulation's time: the fastest of its replays, in milliseconds.
/// Every replay of a simulation does identical work, so its replays differ
/// only by interference. On a shared host, contention from outside the
/// process slows the whole machine for seconds at a time and never speeds
/// it up; a simulation's fastest replay comes from a quiet moment, while a
/// change to the program slows every replay alike.
fn simulation_ms(pass: &Untraced) -> Vec<f64> {
    pass.replays
        .iter()
        .map(|r| *r.iter().min().expect("every pass runs one cycle") as f64 / 1e6)
        .collect()
}

/// Results of the traced pass.
struct Traced {
    runs: Vec<RunTrace>,
    totals: RunTrace,
    vertices: u64,
    report_phases: u64,
    phase_walls_ns: Vec<u64>,
    spans: Vec<Span>,
    attempted: u64,
    failed: u64,
}

/// Rebuilds each input with `Scenario::build` (timed) and runs it with
/// `measure_overhead(true)`, `profile(true)` and the recording sink.
/// Spans are kept for the first simulation of each point only, so the
/// span file stays small however long the pass runs.
fn traced_pass(workload: &Workload, setup: &Setup, budget_s: f64) -> Traced {
    let origin = Instant::now();
    let mut out = Traced {
        runs: Vec::new(),
        totals: RunTrace::default(),
        vertices: 0,
        report_phases: 0,
        phase_walls_ns: Vec::new(),
        spans: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    loop {
        for (input, reference) in setup.inputs.iter().zip(&setup.refs) {
            let build_start = elapsed_ns(origin);
            let tasks = workload.points[input.point]
                .scenario
                .build(input.seed)
                .tasks;
            let build_end = elapsed_ns(origin);
            let same_inputs = tasks == input.tasks;
            let config = workload.config(input).measure_overhead(true).profile(true);
            let mut tracer = LayerTracer::new(
                origin,
                out.runs.len(),
                out.runs.len() < workload.points.len(),
                &mut out.phase_walls_ns,
                workload.telemetry.then(Telemetry::new),
            );
            let run_start = elapsed_ns(origin);
            tracer.begin(build_start, build_end, run_start);
            let report = Driver::new(config).run_traced(tasks, &mut tracer);
            let (trace, spans, telemetry) = tracer.finish(run_start);
            let ok = same_inputs
                && report == reference.report
                && report_ok(&report)
                && telemetry.is_none_or(|t| telemetry_ok(&t, &report));
            out.attempted += 1;
            out.failed += u64::from(!ok);
            out.vertices += report.total_vertices();
            out.report_phases += report.phases.len() as u64;
            out.totals.add(&trace);
            out.runs.push(trace);
            out.spans.extend(spans);
        }
        if origin.elapsed().as_secs_f64() >= budget_s {
            return out;
        }
    }
}

/// Linear-interpolation quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n as f64
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

type Metrics = BTreeMap<String, f64>;

fn metrics<const N: usize>(values: [(&str, f64); N]) -> Metrics {
    values
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

fn end_to_end_metrics(setup: &Setup, pass: &Untraced) -> Result<Metrics, String> {
    let runs_ms = sorted(simulation_ms(pass).into_iter());
    let tasks: usize = setup.inputs.iter().map(|i| i.tasks.len()).sum();
    Ok(metrics([
        (
            "tasks_per_s",
            tasks as f64 / (runs_ms.iter().sum::<f64>() / 1e3),
        ),
        ("run_ms_p50", quantile(&runs_ms, 0.5)),
        ("run_ms_p90", quantile(&runs_ms, 0.9)),
        (
            "setup_s",
            quantile(&sorted(setup.seconds.iter().copied()), 0.5),
        ),
        ("peak_rss_mb", peak_rss_mb()?),
        (
            "hit_ratio",
            mean(setup.refs.iter().map(|r| r.report.hit_ratio())),
        ),
    ]))
}

fn per_layer_metrics(
    workload: &Workload,
    setup: &Setup,
    untraced: &Untraced,
    traced: &Traced,
) -> Metrics {
    let refs = &setup.refs;
    let per_run = |f: &dyn Fn(&Reference) -> f64| mean(refs.iter().map(f));
    let t = &traced.totals;
    let n = traced.runs.len() as f64;
    let wall = t.wall_ns as f64;
    let stages = t.stages_total_ns() as f64;
    let untraced_ns = mean(untraced.run_ns().map(|ns| ns as f64));
    let phase_walls_us = sorted(traced.phase_walls_ns.iter().map(|&ns| ns as f64 / 1e3));
    let mut m = metrics([
        (
            "workload.build_ms_p50",
            quantile(&sorted(traced.runs.iter().map(|r| r.build_ns as f64)), 0.5) / 1e6,
        ),
        (
            "core.phases_per_run",
            per_run(&|r| r.report.phases.len() as f64),
        ),
        (
            "core.dropped_per_run",
            per_run(&|r| r.report.dropped as f64),
        ),
        (
            "core.sched_virtual_ms_per_run",
            per_run(&|r| r.report.total_scheduling_time().as_millis_f64()),
        ),
        ("core.self_ms_per_run", t.core_self_ns() / n / 1e6),
        (
            "core.self_ns_per_phase",
            t.core_self_ns() / traced.report_phases as f64,
        ),
        (
            "search.vertices_per_run",
            per_run(&|r| r.report.total_vertices() as f64),
        ),
        (
            "search.backtracks_per_run",
            per_run(&|r| r.report.total_backtracks() as f64),
        ),
        (
            "search.undos_per_run",
            per_run(&|r| r.report.total_undos() as f64),
        ),
        (
            "search.dead_end_phases_per_run",
            per_run(&|r| r.report.dead_end_phases() as f64),
        ),
        ("search.wall_ms_per_run", t.search_ns as f64 / n / 1e6),
        (
            "search.ns_per_vertex",
            t.search_ns as f64 / traced.vertices as f64,
        ),
        ("search.phase_wall_us_p50", quantile(&phase_walls_us, 0.5)),
        ("search.phase_wall_us_p99", quantile(&phase_walls_us, 0.99)),
        (
            "search.quantum_overrun_ratio",
            t.overruns as f64 / t.phases as f64,
        ),
        (
            "platform.completions_per_run",
            per_run(&|r| r.report.completions.len() as f64),
        ),
        (
            "platform.busy_fraction_mean",
            per_run(&|r| r.report.utilization_summary().map_or(0.0, |(_, m, _)| m)),
        ),
        ("bench.trace_overhead_x", wall / n / untraced_ns),
        (
            "bench.layer_share_residual",
            1.0 - (t.core_self_ns() + stages + t.telemetry_ns() as f64 + t.recorder_ns as f64)
                / wall,
        ),
    ]);
    for (stage, ns) in STAGES.iter().zip(t.stage_ns) {
        m.insert(format!("search.stage.{stage}"), ns as f64 / stages);
    }
    // The telemetry layer is measured on the telemetry workload only and
    // reads 0 elsewhere.
    let tasks = per_run(&|r| r.report.total_tasks as f64);
    let mut telemetry = metrics([
        (
            "telemetry.events_per_task",
            per_run(&|r| r.jsonl_lines as f64) / tasks,
        ),
        (
            "telemetry.jsonl_bytes_per_task",
            per_run(&|r| r.jsonl_bytes as f64) / tasks,
        ),
        (
            "telemetry.screen_probes_per_run",
            per_run(&|r| r.screen_probes as f64),
        ),
        (
            "telemetry.overhead_x",
            untraced_ns / mean(untraced.plain_ns.iter().map(|&ns| ns as f64)),
        ),
    ]);
    for (k, sink) in SINKS.iter().enumerate() {
        telemetry.insert(
            format!("telemetry.{sink}.ns_per_event"),
            t.sink_ns[k] as f64 / t.sink_events[k] as f64,
        );
    }
    for (name, value) in telemetry {
        m.insert(name, if workload.telemetry { value } else { 0.0 });
    }
    m
}

/// Prints the traced pass's layer table: where one run's wall time went.
fn print_layer_table(traced: &Traced) {
    let t = &traced.totals;
    let n = traced.runs.len() as f64;
    let wall = t.wall_ns as f64;
    let row = |layer: &str, ns: f64| {
        println!(
            "#   {layer:<22} {:>10.4} ms/run {:>8.4}",
            ns / n / 1e6,
            ns / wall
        );
    };
    println!(
        "# layer shares of traced run wall time ({} runs):",
        traced.runs.len()
    );
    row("core (self)", t.core_self_ns());
    for (stage, ns) in STAGES.iter().zip(t.stage_ns) {
        row(&format!("search.{stage}"), ns as f64);
    }
    row(
        "search (unattributed)",
        t.search_ns as f64 - t.stages_total_ns() as f64,
    );
    for (sink, ns) in SINKS.iter().zip(t.sink_ns) {
        row(&format!("telemetry.{sink}"), ns as f64);
    }
    row("bench (recorder)", t.recorder_ns as f64);
    println!(
        "#   workload.build (outside the run) {:.4} ms/run",
        t.build_ns as f64 / n / 1e6
    );
}

/// Writes the traced pass's spans as JSONL next to this package.
fn write_spans(workload: &Workload, spans: &[Span]) -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}.jsonl", workload.name));
    let mut text = String::new();
    let mut first_of_run = 0;
    for (i, span) in spans.iter().enumerate() {
        if i > 0 && span.run != spans[i - 1].run {
            first_of_run = i;
        }
        let json =
            serde_json::to_string(&span.to_json(i - first_of_run)).map_err(|e| e.to_string())?;
        text.push_str(&json);
        text.push('\n');
    }
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn hex(digest: u64) -> Value {
    Value::Str(format!("{digest:016x}"))
}

fn manifest(
    workload: &Workload,
    args: &Args,
    setup: &Setup,
    attempted: u64,
    samples: usize,
) -> Value {
    let describe = rtsads_repro::telemetry::manifest::git_describe();
    let reports: String = setup
        .refs
        .iter()
        .map(|r| format!("{:?}", r.report))
        .collect();
    let str_list = |items: Vec<String>| Value::Array(items.into_iter().map(Value::Str).collect());
    let exact = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .filter(|m| m.2)
        .map(|m| m.0.to_string())
        .collect();
    let mut fields = vec![
        ("workload", Value::Str(workload.name.to_string())),
        (
            "params",
            Value::Object(
                workload
                    .params
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), Value::Str(v.clone())))
                    .collect(),
            ),
        ),
        (
            "points",
            str_list(workload.points.iter().map(|p| p.label.clone()).collect()),
        ),
        ("seed_base", Value::U64(args.seed)),
        ("simulations_per_cycle", Value::U64(workload.runs as u64)),
        ("runs_attempted", Value::U64(attempted)),
        ("run_ms_samples", Value::U64(samples as u64)),
        ("seconds", Value::F64(args.seconds)),
        ("traced_pass", Value::Bool(args.trace)),
        (
            "nproc",
            Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "git_describe",
            describe.clone().map_or(Value::Null, Value::Str),
        ),
        (
            "git_dirty",
            describe.map_or(Value::Null, |d| Value::Bool(d.ends_with("-dirty"))),
        ),
        ("rustc", Value::Str(rustc_version())),
        ("reports_digest", hex(fnv1a(reports.as_bytes()))),
        ("exact_metrics", str_list(exact)),
    ];
    if workload.telemetry {
        let jsonl: Vec<u8> = setup
            .refs
            .iter()
            .flat_map(|r| r.jsonl_digest.unwrap_or(0).to_le_bytes())
            .collect();
        fields.push(("jsonl_digest", hex(fnv1a(&jsonl))));
    }
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn run(args: &Args, workload: &Workload) -> Result<(), String> {
    let cpus = Cpus::allowed();
    let setup = setup(workload, args.seed, &cpus);
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = untraced_pass(
        workload,
        &setup,
        &cpus,
        untraced_s,
        args.trace && workload.telemetry,
    );
    let traced = args
        .trace
        .then(|| traced_pass(workload, &setup, args.seconds / 2.0));
    let (table, metrics): (&[Metric], Metrics) = match &traced {
        Some(traced) => (
            &PER_LAYER,
            per_layer_metrics(workload, &setup, &untraced, traced),
        ),
        None => (&END_TO_END, end_to_end_metrics(&setup, &untraced)?),
    };
    let traced_counts = traced.as_ref().map_or((0, 0), |t| (t.attempted, t.failed));
    let attempted = setup.attempted + untraced.attempted + traced_counts.0;
    let failed = setup.failed + untraced.failed + traced_counts.1;

    println!(
        "# simbench {} | seed base {} | {} s | {}",
        workload.name,
        args.seed,
        args.seconds,
        if args.trace {
            "traced pass"
        } else {
            "untraced pass"
        }
    );
    let samples = setup.inputs.len();
    let manifest = manifest(workload, args, &setup, attempted, samples);
    println!(
        "# manifest {}",
        serde_json::to_string(&manifest).map_err(|e| e.to_string())?
    );
    let mut result = Vec::new();
    for &(name, unit, _) in table {
        let value = metrics[name];
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        println!("{name:<36} {value:>16.6} {unit}");
        result.push((
            name.to_string(),
            Value::Object(vec![
                ("value".to_string(), Value::F64(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ]),
        ));
    }
    println!(
        "# error_rate {:.6} ({failed} failed of {attempted} runs); timings: the fastest of \
         {} replays of each of {samples} simulations",
        failed as f64 / attempted as f64,
        untraced.cycles,
    );
    println!(
        "# setup_s repetitions {:?}",
        setup
            .seconds
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
    );
    if let Some(traced) = &traced {
        print_layer_table(traced);
        println!("# note: {PROVENANCE_CAVEAT}");
        let path = write_spans(workload, &traced.spans)?;
        eprintln!("# wrote {}", path.display());
    }
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), Value::Object(result)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn main() -> ExitCode {
    let usage = format!(
        "usage: simbench --workload {} [--seed BASE] [--seconds S] [--trace 0|1]",
        NAMES.join("|")
    );
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{usage}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::named(&args.workload) else {
        eprintln!("error: unknown workload '{}'\n{usage}", args.workload);
        return ExitCode::from(2);
    };
    match run(&args, &workload) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
