//! CLI entry point: regenerate the paper's figures.
//!
//! ```text
//! experiments [all|fig5|fig6|ext-laxity|ext-quantum|ext-cost|ext-overhead|
//!              ext-deadends|ext-baselines|ext-openload|ext-pruning|
//!              ext-mesh|ext-resources|ext-faults]
//!             [--quick] [--runs N] [--txns N] [--out DIR] [--progress]
//!             [--fault-rate R1,R2,...] [--mttr MS]
//!             [--scenario FILE.json] [--dump-scenario FILE.json]
//!             [--trace-out FILE.jsonl] [--metrics-out FILE.json]
//!             [--perfetto-out FILE.trace.json]
//! ```
//!
//! Prints each figure as an aligned table (plus significance notes) and, if
//! `--out` is given, writes one CSV per figure, each with a
//! `*.manifest.json` sibling recording the seed base, calibration constants
//! and source revision that produced it.
//!
//! `--progress` repaints a live stderr ticker while figures run —
//! replications and scheduling phases per second, plus position and ETA
//! within the current experiment point. It rides process-wide counters, so
//! it never touches the replication results.
//!
//! The three `--*-out` flags additionally run one instrumented RT-SADS
//! simulation of the base scenario (at `seed_base`) and export its JSONL
//! trace, metrics summary and/or Perfetto timeline — handy for inspecting
//! exactly what the figures aggregate over.

use std::path::PathBuf;
use std::process::ExitCode;

use experiments::config::{comm_model, host_params};
use experiments::{config::ExperimentConfig, ext, fig5, fig6, FigureOutput};
use paragon_platform::MAX_INPUT_SPAN;
use rt_telemetry::{RunManifest, TelemetrySession};
use rtsads::{Algorithm, Driver, DriverConfig};

struct Cli {
    which: Vec<String>,
    config: ExperimentConfig,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    perfetto_out: Option<PathBuf>,
}

const ALL: [&str; 14] = [
    "fig5",
    "fig6",
    "ext-laxity",
    "ext-quantum",
    "ext-cost",
    "ext-overhead",
    "ext-deadends",
    "ext-baselines",
    "ext-openload",
    "ext-pruning",
    "ext-mesh",
    "ext-resources",
    "ext-faults",
    "ext-sharded",
];

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut which = Vec::new();
    let mut config = ExperimentConfig::paper();
    let mut out = None;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut perfetto_out = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => config = ExperimentConfig::quick(),
            "--progress" => experiments::progress::enable(),
            "--runs" => {
                config.runs = it
                    .next()
                    .ok_or("--runs needs a value")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if config.runs == 0 {
                    return Err("--runs must be positive".to_string());
                }
            }
            "--txns" => {
                config.transactions = it
                    .next()
                    .ok_or("--txns needs a value")?
                    .parse()
                    .map_err(|e| format!("--txns: {e}"))?;
            }
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a value")?)),
            "--fault-rate" => {
                let list = it.next().ok_or("--fault-rate needs a value")?;
                config.fault_rates = list
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<f64>()
                            .map_err(|e| format!("--fault-rate '{s}': {e}"))
                            .and_then(|r| {
                                if r.is_finite() && r >= 0.0 {
                                    Ok(r)
                                } else {
                                    Err(format!("--fault-rate '{s}': must be >= 0"))
                                }
                            })
                    })
                    .collect::<Result<Vec<f64>, String>>()?;
            }
            "--mttr" => {
                config.mttr_ms = it
                    .next()
                    .ok_or("--mttr needs a value (milliseconds)")?
                    .parse()
                    .map_err(|e| format!("--mttr: {e}"))?;
                // Under this cap every repair instant fits `Time`.
                let max_ms = MAX_INPUT_SPAN.as_micros() / 1_000;
                if config.mttr_ms > max_ms {
                    return Err(format!(
                        "--mttr must be at most {max_ms} (2^40 us, about 12.7 days)"
                    ));
                }
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(it.next().ok_or("--trace-out needs a value")?));
            }
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(
                    it.next().ok_or("--metrics-out needs a value")?,
                ));
            }
            "--perfetto-out" => {
                perfetto_out = Some(PathBuf::from(
                    it.next().ok_or("--perfetto-out needs a value")?,
                ));
            }
            "--scenario" => {
                let path = it.next().ok_or("--scenario needs a file path")?;
                let json =
                    std::fs::read_to_string(path).map_err(|e| format!("--scenario {path}: {e}"))?;
                config = config
                    .with_scenario_json(&json)
                    .map_err(|e| format!("--scenario {path}: {e}"))?;
            }
            "--dump-scenario" => {
                let path = it.next().ok_or("--dump-scenario needs a file path")?;
                std::fs::write(path, config.scenario_json())
                    .map_err(|e| format!("--dump-scenario {path}: {e}"))?;
                eprintln!("# wrote scenario template to {path}");
            }
            "all" => which.extend(ALL.iter().map(|s| s.to_string())),
            name if ALL.contains(&name) => which.push(name.to_string()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if which.is_empty() {
        which.extend(ALL.iter().map(|s| s.to_string()));
    }
    // Checked once on the effective scenario, whatever order `--txns` and
    // `--scenario` came in.
    config.base_scenario().validate()?;
    Ok(Cli {
        which,
        config,
        out,
        trace_out,
        metrics_out,
        perfetto_out,
    })
}

/// The manifest describing one figure produced by this invocation: seed
/// base, worker count and the calibration constants every figure shares.
fn manifest_for(fig_id: &str, config: &ExperimentConfig) -> RunManifest {
    let scenario = config.base_scenario();
    RunManifest::new("rt-sads vs d-cols", config.seed_base, scenario.workers)
        .calibration(
            host_params().vertex_eval_cost.as_micros(),
            Some(comm_model().constant_cost().as_micros()),
        )
        .with("figure", fig_id)
        .with("runs", config.runs.to_string())
        .with("transactions", config.transactions.to_string())
}

/// Runs one instrumented RT-SADS simulation of the base scenario and writes
/// whichever of the three telemetry outputs were requested.
fn run_instrumented(cli: &Cli) -> Result<(), String> {
    let mut session = TelemetrySession::create(
        cli.trace_out.as_deref(),
        cli.metrics_out.as_deref(),
        cli.perfetto_out.as_deref(),
    )
    .map_err(|e| format!("cannot open telemetry output: {e}"))?;
    let scenario = cli.config.base_scenario();
    let built = scenario.build(cli.config.seed_base);
    let driver = DriverConfig::new(scenario.workers, Algorithm::rt_sads())
        .comm(comm_model())
        .host(host_params())
        .seed(cli.config.seed_base);
    let report = Driver::new(driver).run_traced(built.tasks, &mut session.sink());
    eprintln!(
        "# instrumented run: {} hit ratio {:.3} over {} phases",
        report.algorithm,
        report.hit_ratio(),
        report.phases.len()
    );
    for path in session
        .finish(scenario.workers)
        .map_err(|e| format!("cannot write telemetry output: {e}"))?
    {
        eprintln!("# wrote {}", path.display());
    }
    Ok(())
}

fn run_one(name: &str, config: &ExperimentConfig) -> FigureOutput {
    match name {
        "fig5" => fig5::run(config),
        "fig6" => fig6::run(config),
        "ext-laxity" => ext::laxity(config),
        "ext-quantum" => ext::quantum(config),
        "ext-cost" => ext::cost(config),
        "ext-overhead" => ext::overhead(config),
        "ext-deadends" => ext::deadends(config),
        "ext-baselines" => ext::baselines(config),
        "ext-openload" => ext::open_load(config),
        "ext-pruning" => ext::pruning(config),
        "ext-mesh" => ext::mesh(config),
        "ext-resources" => ext::resources(config),
        "ext-faults" => ext::faults(config),
        "ext-sharded" => ext::sharded(config),
        other => unreachable!("unvalidated experiment name {other}"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: experiments [{}|all] [--quick] [--runs N] [--txns N] [--out DIR] \
                 [--progress] [--fault-rate R1,R2,...] [--mttr MS] \
                 [--scenario FILE.json] [--dump-scenario FILE.json] [--trace-out FILE.jsonl] \
                 [--metrics-out FILE.json] [--perfetto-out FILE.trace.json]",
                ALL.join("|")
            );
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "# config: {} runs x {} transactions (seed base {})",
        cli.config.runs, cli.config.transactions, cli.config.seed_base
    );
    if let Some(dir) = &cli.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    for name in &cli.which {
        let started = rt_telemetry::MonotonicInstant::now();
        experiments::progress::set_label(name);
        let ticker = experiments::progress::ProgressTicker::start();
        let fig = run_one(name, &cli.config);
        ticker.finish();
        println!("{}", fig.render());
        eprintln!("# {name} took {:.1}s", started.elapsed().as_secs_f64());
        if let Some(dir) = &cli.out {
            let path = dir.join(format!("{}.csv", fig.id));
            if let Err(e) = std::fs::write(&path, fig.table.to_csv()) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("# wrote {}", path.display());
            match manifest_for(fig.id, &cli.config).write_beside(&path) {
                Ok(manifest_path) => eprintln!("# wrote {}", manifest_path.display()),
                Err(e) => {
                    eprintln!("error: cannot write manifest for {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if cli.trace_out.is_some() || cli.metrics_out.is_some() || cli.perfetto_out.is_some() {
        if let Err(msg) = run_instrumented(&cli) {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Cli, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn zero_runs_is_an_error_not_a_panic() {
        assert_eq!(
            parse_strs(&["fig5", "--quick", "--runs", "0"])
                .err()
                .as_deref(),
            Some("--runs must be positive")
        );
        let cli = parse_strs(&["fig5", "--quick", "--runs", "2"]).expect("parses");
        assert_eq!(cli.config.runs, 2);
    }

    #[test]
    fn zero_txns_is_an_error_not_a_panic() {
        let expected = Some("scenario parameter `transactions` must be positive");
        let err = parse_strs(&["fig5", "--txns", "0", "--runs", "1"]).err();
        assert_eq!(err.as_deref(), expected);
        // A `--txns` after `--scenario` overrides the file's count, and is
        // checked too.
        let path = std::env::temp_dir().join("experiments-zero-txns-scenario.json");
        std::fs::write(&path, ExperimentConfig::paper().scenario_json()).expect("writable");
        let path = path.to_str().expect("utf-8 path");
        let err = parse_strs(&["fig5", "--scenario", path, "--txns", "0"]).err();
        assert_eq!(err.as_deref(), expected);
        let cli = parse_strs(&["fig5", "--scenario", path, "--txns", "20"]).expect("parses");
        assert_eq!(cli.config.base_scenario().transactions, 20);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn mttr_past_the_cap_is_an_error_not_a_panic() {
        let args = ["--runs", "1", "--txns", "50", "--fault-rate", "1", "--mttr"];
        let err = parse_strs(&[&args[..], &["18446744073709551615", "ext-faults"]].concat())
            .err()
            .expect("rejected");
        assert!(err.starts_with("--mttr must be at most"), "got {err:?}");
        // At the cap the sweep runs: every repair instant fits `Time`.
        let max = (MAX_INPUT_SPAN.as_micros() / 1_000).to_string();
        let cli = parse_strs(&[&args[..], &[&max, "ext-faults"]].concat()).expect("parses");
        let out = experiments::ext::faults(&cli.config);
        assert_eq!(out.id, "ext-faults");
    }
}
