//! Post-run decision forensics: the `--report-out` file format, the
//! `explain` causal-chain reconstruction and the `report-diff` drift
//! comparison used as a CI determinism gate.
//!
//! A [`ReportFile`] bundles the [`RunReport`] aggregate counters with the
//! per-task [`TaskDossier`] attributions the [`DecisionLedger`] derived
//! from the same run, under a schema version so readers can fail clearly
//! on files from a newer writer. [`diff_reports`] compares two such files
//! three ways — counter deltas, lateness-quantile shifts, per-task outcome
//! flips — and renders the differences; two runs of the same pinned seed
//! must produce an empty diff, which is exactly what the CI gate asserts.

use std::fmt::Write as _;

use rt_telemetry::ledger::DecisionLedger;
use rt_telemetry::TaskDossier;
use rtsads::RunReport;
use serde::{Deserialize, Serialize};

/// Version of the `--report-out` JSON schema. Bump on breaking changes to
/// [`ReportFile`], [`RunReport`] or [`TaskDossier`] serialization.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// The contents of a `--report-out FILE.json`: aggregate counters plus the
/// per-task attributions that explain them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportFile {
    /// See [`REPORT_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// The run's aggregate report.
    pub report: RunReport,
    /// One dossier per task, ordered by task id.
    pub attributions: Vec<TaskDossier>,
}

impl ReportFile {
    /// Bundles a finished run's report with its ledger.
    #[must_use]
    pub fn new(report: RunReport, ledger: DecisionLedger) -> Self {
        ReportFile {
            schema_version: REPORT_SCHEMA_VERSION,
            report,
            attributions: ledger.into_dossiers(),
        }
    }

    /// Parses a report file, rejecting unknown schema versions with a
    /// clear error instead of a field-level parse failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        if let Ok(value) = serde_json::from_str::<serde::Value>(text) {
            if let Some(version) = value.get("schema_version").and_then(|v| v.as_u64()) {
                if version != u64::from(REPORT_SCHEMA_VERSION) {
                    return Err(format!(
                        "unknown report schema version {version}: this reader supports \
                         version {REPORT_SCHEMA_VERSION}"
                    ));
                }
            }
        }
        serde_json::from_str(text).map_err(|e| format!("malformed report file: {e:?}"))
    }

    /// Serializes for writing to disk.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report files serialize")
    }
}

/// Differences between two report files. Empty everywhere ⇔ zero drift.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReportDiff {
    /// `(name, value in a, value in b)` for every differing counter.
    pub counter_deltas: Vec<(String, i64, i64)>,
    /// `(quantile name, value in a, value in b)` for shifted lateness
    /// quantiles over executed tasks.
    pub quantile_shifts: Vec<(String, i64, i64)>,
    /// `(task, outcome in a, outcome in b)` for every task whose final
    /// attribution differs (`absent` when one file never saw the task).
    pub outcome_flips: Vec<(u64, String, String)>,
}

impl ReportDiff {
    /// Whether the two runs are indistinguishable at every level.
    #[must_use]
    pub fn is_drift_free(&self) -> bool {
        self.counter_deltas.is_empty()
            && self.quantile_shifts.is_empty()
            && self.outcome_flips.is_empty()
    }

    /// Human-readable rendering, one difference per line.
    #[must_use]
    pub fn render(&self) -> String {
        if self.is_drift_free() {
            return "no drift: reports are identical\n".to_string();
        }
        let mut out = String::new();
        for (name, a, b) in &self.counter_deltas {
            let delta = b - a;
            let _ = writeln!(out, "counter {name}: {a} -> {b} ({delta:+})");
        }
        for (name, a, b) in &self.quantile_shifts {
            let _ = writeln!(out, "quantile {name}: {a}us -> {b}us ({:+}us)", b - a);
        }
        for (task, a, b) in &self.outcome_flips {
            let _ = writeln!(out, "task {task}: {a} -> {b}");
        }
        let _ = writeln!(
            out,
            "drift: {} counter(s), {} quantile(s), {} task outcome flip(s)",
            self.counter_deltas.len(),
            self.quantile_shifts.len(),
            self.outcome_flips.len()
        );
        out
    }
}

/// Nearest-rank quantile of a sorted sample; `None` when empty.
fn quantile(sorted: &[i64], q: f64) -> Option<i64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Lateness (`completion − deadline`, microseconds) of every executed
/// task, sorted — the distribution whose quantiles the diff watches.
fn lateness_sorted(report: &RunReport) -> Vec<i64> {
    let mut lateness: Vec<i64> = report
        .completions
        .iter()
        .map(|c| {
            let completion = c.completion.as_micros() as i64;
            let deadline = c.deadline.as_micros() as i64;
            completion - deadline
        })
        .collect();
    lateness.sort_unstable();
    lateness
}

/// Compares two report files; see [`ReportDiff`].
#[must_use]
pub fn diff_reports(a: &ReportFile, b: &ReportFile) -> ReportDiff {
    let mut diff = ReportDiff::default();

    let counters = |r: &RunReport| -> Vec<(&'static str, i64)> {
        vec![
            ("total_tasks", r.total_tasks as i64),
            ("hits", r.hits as i64),
            ("executed_misses", r.executed_misses as i64),
            ("dropped", r.dropped as i64),
            ("lost_in_flight", r.lost_in_flight as i64),
            ("orphaned", r.orphaned as i64),
            ("faults_seen", r.faults_seen as i64),
            ("phases", r.phases.len() as i64),
            ("total_vertices", r.total_vertices() as i64),
            ("total_backtracks", r.total_backtracks() as i64),
            ("workers_used", r.workers_used as i64),
            ("finished_at_us", r.finished_at.as_micros() as i64),
        ]
    };
    for ((name, va), (_, vb)) in counters(&a.report).into_iter().zip(counters(&b.report)) {
        if va != vb {
            diff.counter_deltas.push((name.to_string(), va, vb));
        }
    }

    let (la, lb) = (lateness_sorted(&a.report), lateness_sorted(&b.report));
    for (name, q) in [
        ("lateness_p50", 0.50),
        ("lateness_p90", 0.90),
        ("lateness_p99", 0.99),
    ] {
        match (quantile(&la, q), quantile(&lb, q)) {
            (Some(qa), Some(qb)) if qa != qb => {
                diff.quantile_shifts.push((name.to_string(), qa, qb));
            }
            _ => {}
        }
    }

    // Per-task outcome flips. Attributions are ordered by task id, so a
    // single merge pass lines them up.
    let (mut ia, mut ib) = (
        a.attributions.iter().peekable(),
        b.attributions.iter().peekable(),
    );
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(da), Some(db)) if da.task == db.task => {
                if da.attribution != db.attribution {
                    diff.outcome_flips.push((
                        da.task,
                        da.attribution.label().to_string(),
                        db.attribution.label().to_string(),
                    ));
                }
                ia.next();
                ib.next();
            }
            (Some(da), Some(db)) if da.task < db.task => {
                diff.outcome_flips.push((
                    da.task,
                    da.attribution.label().to_string(),
                    "absent".to_string(),
                ));
                ia.next();
            }
            (Some(_), Some(db)) => {
                diff.outcome_flips.push((
                    db.task,
                    "absent".to_string(),
                    db.attribution.label().to_string(),
                ));
                ib.next();
            }
            (Some(da), None) => {
                diff.outcome_flips.push((
                    da.task,
                    da.attribution.label().to_string(),
                    "absent".to_string(),
                ));
                ia.next();
            }
            (None, Some(db)) => {
                diff.outcome_flips.push((
                    db.task,
                    "absent".to_string(),
                    db.attribution.label().to_string(),
                ));
                ib.next();
            }
            (None, None) => break,
        }
    }

    diff
}

/// Reconstructs one task's causal chain from a parsed JSONL trace — the
/// body of the `explain` subcommand. The trace alone suffices: no report
/// file or rerun needed.
pub fn explain_task(
    events: &[(paragon_des::Time, paragon_des::trace::TraceEvent)],
    task: u64,
) -> Result<String, String> {
    let ledger = DecisionLedger::from_events(events);
    let dossier = ledger.dossier(task).ok_or_else(|| {
        format!(
            "task {task} does not appear in the trace ({} tasks seen)",
            ledger.len()
        )
    })?;
    let mut out = format!("task {task}\n");
    for line in dossier.narrative() {
        let _ = writeln!(out, "  {line}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_des::Duration;
    use rt_task::CommModel;
    use rt_workload::Scenario;
    use rtsads::{Algorithm, Driver, DriverConfig};

    fn run_report_file(seed: u64) -> ReportFile {
        let built = Scenario::small().build(seed);
        let config = DriverConfig::new(4, Algorithm::rt_sads())
            .comm(CommModel::constant(Duration::from_micros(500)))
            .seed(seed);
        let mut ledger = DecisionLedger::new();
        let report = Driver::new(config).run_traced(built.tasks, &mut ledger);
        ReportFile::new(report, ledger)
    }

    #[test]
    fn same_seed_is_drift_free_and_round_trips() {
        let a = run_report_file(11);
        let b = run_report_file(11);
        let diff = diff_reports(&a, &b);
        assert!(diff.is_drift_free(), "drift: {}", diff.render());
        assert!(diff.render().contains("no drift"));

        let parsed = ReportFile::parse(&a.to_json()).unwrap();
        assert_eq!(parsed, a);
    }

    /// The report file text is pinned byte for byte (by length and 64-bit
    /// FNV-1a digest, the file being 118 kB): `report-diff` reads files
    /// written by earlier builds.
    #[test]
    fn report_file_text_is_pinned() {
        let text = run_report_file(11).to_json();
        let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((text.len(), digest), (118_127, 0xab56_89a0_3261_f8fc));
    }

    #[test]
    fn different_seeds_show_up_in_the_diff() {
        let a = run_report_file(11);
        let b = run_report_file(12);
        let diff = diff_reports(&a, &b);
        assert!(!diff.is_drift_free());
        assert!(diff.render().contains("drift:"));
    }

    #[test]
    fn attributions_partition_matches_the_report() {
        let f = run_report_file(7);
        let mut counts = rt_telemetry::AttributionCounts::default();
        for d in &f.attributions {
            counts.total += 1;
            match d.attribution.label() {
                "Hit" => counts.hits += 1,
                "ExecutedMiss" => counts.executed_misses += 1,
                "DroppedBeforeSchedulable" => counts.dropped_before_schedulable += 1,
                "ScreenedThenExpired" => counts.screened_then_expired += 1,
                "LostInFlight" => counts.lost_in_flight += 1,
                other => panic!("unresolved attribution {other}"),
            }
        }
        assert!(counts.is_partition_of(f.report.total_tasks));
        assert_eq!(counts.hits, f.report.hits);
        assert_eq!(counts.executed_misses, f.report.executed_misses);
        assert_eq!(counts.dropped(), f.report.dropped);
        assert_eq!(counts.lost_in_flight, f.report.lost_in_flight);
    }

    #[test]
    fn unknown_report_schema_is_rejected() {
        let mut f = run_report_file(3);
        f.schema_version = 99;
        let err = ReportFile::parse(&f.to_json()).unwrap_err();
        assert!(err.contains("unknown report schema version 99"), "{err}");
    }

    #[test]
    fn explain_reconstructs_a_chain_from_the_trace_alone() {
        use paragon_des::trace::RecordingTracer;
        let built = Scenario::small().build(5);
        let config = DriverConfig::new(4, Algorithm::rt_sads())
            .comm(CommModel::constant(Duration::from_micros(500)))
            .seed(5);
        let mut recorder = RecordingTracer::new();
        let report = Driver::new(config).run_traced(built.tasks, &mut recorder);
        assert!(report.total_tasks > 0);
        let events = recorder.into_events();
        // Every task in the run must be explainable.
        let ledger = DecisionLedger::from_events(&events);
        assert_eq!(ledger.len(), report.total_tasks);
        let first = ledger.dossiers().next().unwrap().task;
        let text = explain_task(&events, first).unwrap();
        assert!(text.contains("verdict:"), "{text}");
        assert!(text.contains("admitted:"), "{text}");
        let missing = explain_task(&events, u64::MAX).unwrap_err();
        assert!(missing.contains("does not appear"), "{missing}");
    }
}
