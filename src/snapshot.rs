//! Tracked search-throughput baseline: `rtsads-sim bench-snapshot` measures
//! steady-state scheduling throughput at four canonical scenario points and
//! writes `BENCH_search.json` — phases/sec, vertices/sec and undos/sec plus
//! a [`RunManifest`] (seed, git describe) — so a perf regression shows up as
//! a diff against the committed baseline rather than a vague feeling.
//!
//! The points stress different parts of the hot path:
//!
//! * `deep_dive_64` — the raw engine on a depth-64 straight descent
//!   (no backtracking; dominated by expansion and candidate ordering),
//! * `mixed_150x8` — the full `schedule_phase` on the mixed synthetic
//!   batch (affinity pins, heterogeneous costs),
//! * `tight_150x8` — `schedule_phase` on the backtrack-heavy batch
//!   (deadlines 2× cost; dominated by undo/backtrack traffic),
//! * `sharded_1024x64` — `schedule_phase` at P=1024 on a 16-node sharded
//!   topology, gating the shard-first candidate loop: its
//!   `candidates_per_vertex` must stay far below the flat loop's O(P).
//!
//! All points run with one reused scratch — the driver's steady state, and
//! the regime the `zero_alloc` test pins to zero heap allocations.

use bench_support::{deep_dive_batch, synthetic_batch, tight_batch};
use paragon_des::trace::{PhaseProfile, Stage, STAGE_COUNT};
use paragon_des::{Duration, SimRng, Time};
use paragon_platform::{HostParams, SchedulingMeter};
use rt_task::{Batch, CommModel, ResourceEats};
use rt_telemetry::RunManifest;
use rtsads::{Algorithm, PhaseScratch};
use sched_search::{
    search_schedule_with, ChildOrder, Pruning, Representation, SearchParams, SearchScratch,
};
use serde::{Deserialize, Serialize, Value};

/// Stage-level wall-time attribution of one snapshot point, measured by a
/// dedicated profiled pass run after the timed passes so the stage timers
/// can never taint the throughput rates. Lives behind `serde(default)` on
/// [`SnapshotPoint`], so baselines written before the field existed parse to
/// `None` and skip comparison.
///
/// On the wire it is `total_ns`, then one key per [`Stage::name`] in
/// [`Stage::WIRE_ORDER`]. Parsing ignores the `merge` and `imbalance` keys
/// of the parallel engine's days, and reads a missing `select` key (a
/// baseline from before that stage) as unmeasured.
#[derive(Debug, Clone)]
pub struct PointProfile {
    /// Total attributed wall nanoseconds in the profiled pass.
    pub total_ns: u64,
    /// Each stage's fraction of `total_ns`, indexed by [`Stage`]; the
    /// measured ones sum to 1.0. `None` marks a stage the baseline predates,
    /// so the diff can tell "not measured" from "measured nothing".
    pub shares: [Option<f64>; STAGE_COUNT],
}

impl PointProfile {
    /// Converts an accumulated [`PhaseProfile`] into per-stage fractions.
    /// Returns `None` when nothing was attributed (profiler disabled or the
    /// pass did no search work), so callers never divide by zero.
    #[must_use]
    pub fn from_phase(profile: &PhaseProfile) -> Option<Self> {
        let total = profile.total_ns();
        (total > 0).then(|| PointProfile {
            total_ns: total,
            shares: profile.0.map(|ns| Some(ns as f64 / total as f64)),
        })
    }
}

impl Serialize for PointProfile {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"total_ns\":");
        self.total_ns.write_json(out);
        out.push(',');
        Stage::write_keys(out, "", |stage| self.shares[stage as usize]);
        out.push('}');
    }
}

impl Deserialize for PointProfile {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let shares = Stage::read_keys::<Option<f64>>(v, "", "PointProfile")?;
        let total_ns = v
            .get("total_ns")
            .ok_or_else(|| serde::Error::custom("missing field `total_ns` in PointProfile"))?;
        Ok(PointProfile {
            total_ns: u64::from_value(total_ns)?,
            shares: shares.map(Option::flatten),
        })
    }
}

/// Throughput at one canonical scenario point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotPoint {
    /// Point id, e.g. `deep_dive_64`, `mixed_150x8` or `sharded_1024x64`.
    pub name: String,
    /// Phases measured (after warm-up).
    pub phases: u64,
    /// Wall-clock time for the measured phases, microseconds.
    pub elapsed_us: u64,
    /// Scheduling phases completed per second.
    pub phases_per_sec: f64,
    /// Search vertices generated per second.
    pub vertices_per_sec: f64,
    /// Incremental undo operations per second.
    pub undos_per_sec: f64,
    /// Mean candidate placements evaluated per expansion — the flat
    /// candidate loop's O(P), which shard-first screening cuts to
    /// O(fanout × P/nodes). Unlike the throughput rates this is
    /// wall-clock-free, so the gate on it is noise-immune; higher is
    /// worse. `0.0` in baselines written before the field existed
    /// (`serde(default)`), which skips its comparison.
    #[serde(default)]
    pub candidates_per_vertex: f64,
    /// Stage-level time attribution from a separate profiled pass; `None`
    /// in baselines written before the field existed (`serde(default)`),
    /// which skips the stage-shift comparison.
    #[serde(default)]
    pub profile: Option<PointProfile>,
}

/// The whole snapshot: provenance plus the four measured points.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchSnapshot {
    /// Run provenance: seed, workers, calibration, `git describe`.
    pub manifest: RunManifest,
    /// One entry per canonical point.
    pub points: Vec<SnapshotPoint>,
}

impl BenchSnapshot {
    /// Renders the snapshot as pretty-printed JSON (trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes") + "\n"
    }

    /// Parses a snapshot back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error rendered as a string.
    pub fn parse(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

/// The seed of every snapshot point's phase RNG, recorded in the manifest.
pub const SNAPSHOT_SEED: u64 = 7;

/// Relative throughput drop tolerated by `bench-diff` before it calls a
/// regression (20% — wide enough for CI-runner noise, tight enough to catch
/// a real slowdown).
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// Absolute stage-fraction shift tolerated by `bench-diff` before the
/// profile comparison calls a regression: a stage that moves by more than
/// ten percentage points of the phase's attributed time (e.g. cost fold
/// going from 30% to 45%) signals a hot-path structure change even when
/// total throughput hides it. Deliberately absolute, not relative — small
/// stages jitter wildly in relative terms but a ten-point absolute move is
/// always structural.
pub const STAGE_SHIFT_TOLERANCE: f64 = 0.10;

/// One compared metric of one snapshot point.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Point id the metric belongs to.
    pub point: String,
    /// Metric name, e.g. `phases_per_sec` or `profile.<stage>`.
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// New value.
    pub new: f64,
    /// Relative change, `(new - base) / base`.
    pub change: f64,
    /// Whether the drop exceeds the tolerance.
    pub regressed: bool,
}

/// Outcome of comparing two snapshots.
#[derive(Debug, Clone)]
pub struct SnapshotDiff {
    /// Tolerance the comparison ran with.
    pub tolerance: f64,
    /// Every compared metric, in baseline point order.
    pub deltas: Vec<MetricDelta>,
    /// Baseline points the new snapshot does not have (counts as regression).
    pub missing: Vec<String>,
    /// New-snapshot points the baseline does not have (counts as
    /// regression): a point added to the bench suite without regenerating
    /// the committed baseline would otherwise escape the gate silently.
    pub unexpected: Vec<String>,
    /// Stage metrics present on only one side of a profile comparison
    /// (e.g. a newly added pipeline stage that an older baseline predates),
    /// as `"point/metric"` strings. Logged as a note, never a regression:
    /// the stage set is allowed to grow without invalidating history.
    pub skipped_stages: Vec<String>,
}

impl SnapshotDiff {
    /// True when any metric regressed, a baseline point disappeared, or the
    /// new snapshot carries points the baseline does not know about.
    #[must_use]
    pub fn has_regression(&self) -> bool {
        !self.missing.is_empty()
            || !self.unexpected.is_empty()
            || self.deltas.iter().any(|d| d.regressed)
    }

    /// Human-readable comparison table with a PASS/FAIL verdict line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:<17} {:>14} {:>14} {:>9}  {}\n",
            "point", "metric", "baseline", "new", "change", "verdict"
        ));
        // Throughput rates print as integers; stage fractions (all < 10)
        // as three decimals.
        let fmt = |v: f64| {
            if v.abs() < 10.0 {
                format!("{v:.3}")
            } else {
                format!("{v:.0}")
            }
        };
        for d in &self.deltas {
            out.push_str(&format!(
                "{:<14} {:<17} {:>14} {:>14} {:>+8.1}%  {}\n",
                d.point,
                d.metric,
                fmt(d.base),
                fmt(d.new),
                d.change * 100.0,
                if d.regressed { "REGRESSED" } else { "ok" }
            ));
        }
        for name in &self.missing {
            out.push_str(&format!(
                "{name:<14} missing from new snapshot  REGRESSED\n"
            ));
        }
        for name in &self.unexpected {
            out.push_str(&format!(
                "{name:<14} not in baseline (regenerate it)  REGRESSED\n"
            ));
        }
        for name in &self.skipped_stages {
            out.push_str(&format!(
                "note: {name} present on one side only; stage comparison skipped\n"
            ));
        }
        out.push_str(&format!(
            "verdict: {} (tolerance {:.0}%)\n",
            if self.has_regression() {
                "FAIL"
            } else {
                "PASS"
            },
            self.tolerance * 100.0
        ));
        out
    }

    /// Machine-readable comparison for `bench-diff --json`: the per-point
    /// deltas, the point-set mismatches, and the verdict, as pretty-printed
    /// JSON with a trailing newline. The exit code still carries the
    /// verdict; the JSON is for CI artifacts and dashboards.
    #[must_use]
    pub fn to_json(&self) -> String {
        let strings =
            |xs: &[String]| Value::Array(xs.iter().map(|s| Value::Str(s.clone())).collect());
        let deltas = self
            .deltas
            .iter()
            .map(|d| {
                Value::Object(vec![
                    ("point".to_string(), Value::Str(d.point.clone())),
                    ("metric".to_string(), Value::Str(d.metric.clone())),
                    ("base".to_string(), Value::F64(d.base)),
                    ("new".to_string(), Value::F64(d.new)),
                    ("change".to_string(), Value::F64(d.change)),
                    ("regressed".to_string(), Value::Bool(d.regressed)),
                ])
            })
            .collect();
        let verdict = if self.has_regression() {
            "FAIL"
        } else {
            "PASS"
        };
        let obj = Value::Object(vec![
            ("tolerance".to_string(), Value::F64(self.tolerance)),
            ("verdict".to_string(), Value::Str(verdict.to_string())),
            ("deltas".to_string(), Value::Array(deltas)),
            ("missing".to_string(), strings(&self.missing)),
            ("unexpected".to_string(), strings(&self.unexpected)),
            ("skipped_stages".to_string(), strings(&self.skipped_stages)),
        ]);
        serde_json::to_string_pretty(&obj).expect("diff serializes") + "\n"
    }
}

/// Compares snapshots point by point: `phases_per_sec` and
/// `vertices_per_sec` for every baseline point, plus candidate work per
/// expansion and (when both sides carry a profile section) the per-stage
/// time fractions against [`STAGE_SHIFT_TOLERANCE`]. A metric regresses when it
/// drops by more than `tolerance` relative to the baseline; improvements
/// never fail. Baseline points absent from `new` are reported in
/// [`SnapshotDiff::missing`], and points present in `new` but absent from
/// the baseline in [`SnapshotDiff::unexpected`]; both count as a regression
/// — the latter so that a newly added bench point cannot ship without its
/// baseline being regenerated in the same change.
#[must_use]
pub fn diff_snapshots(base: &BenchSnapshot, new: &BenchSnapshot, tolerance: f64) -> SnapshotDiff {
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    let mut skipped_stages = Vec::new();
    let unexpected = new
        .points
        .iter()
        .filter(|np| !base.points.iter().any(|bp| bp.name == np.name))
        .map(|np| np.name.clone())
        .collect();
    for bp in &base.points {
        let Some(np) = new.points.iter().find(|p| p.name == bp.name) else {
            missing.push(bp.name.clone());
            continue;
        };
        for (metric, b, n) in [
            ("phases_per_sec", bp.phases_per_sec, np.phases_per_sec),
            ("vertices_per_sec", bp.vertices_per_sec, np.vertices_per_sec),
        ] {
            let change = if b > 0.0 { (n - b) / b } else { 0.0 };
            deltas.push(MetricDelta {
                point: bp.name.clone(),
                metric: metric.to_string(),
                base: b,
                new: n,
                change,
                regressed: change < -tolerance,
            });
        }
        // Candidates per expansion is a work metric, not a rate: growth is
        // the regression. Skipped when either side predates the field
        // (0.0), so old baselines still compare cleanly.
        if bp.candidates_per_vertex > 0.0 && np.candidates_per_vertex > 0.0 {
            let (b, n) = (bp.candidates_per_vertex, np.candidates_per_vertex);
            let change = (n - b) / b;
            deltas.push(MetricDelta {
                point: bp.name.clone(),
                metric: "candidates_per_vertex".to_string(),
                base: b,
                new: n,
                change,
                regressed: change > tolerance,
            });
        }
        // Stage fractions compare on an absolute percentage-point shift,
        // independent of the throughput tolerance: where the time goes is a
        // structural property, so a stage absorbing ten more points of the
        // phase is a regression signature even when total throughput moved
        // within tolerance (or improved). Skipped when either side predates
        // the profile section. Stages are matched per `Stage`, in the file's
        // key order; one measured on only one side (a stage an older
        // baseline predates) is noted and skipped, so the set may grow.
        if let (Some(bpr), Some(npr)) = (&bp.profile, &np.profile) {
            for stage in Stage::WIRE_ORDER {
                let metric = format!("profile.{}", stage.name());
                match (bpr.shares[stage as usize], npr.shares[stage as usize]) {
                    (Some(b), Some(n)) => deltas.push(MetricDelta {
                        point: bp.name.clone(),
                        metric,
                        base: b,
                        new: n,
                        change: n - b,
                        regressed: (n - b).abs() > STAGE_SHIFT_TOLERANCE,
                    }),
                    (None, None) => {}
                    _ => skipped_stages.push(format!("{}/{metric}", bp.name)),
                }
            }
        }
    }
    SnapshotDiff {
        tolerance,
        deltas,
        missing,
        unexpected,
        skipped_stages,
    }
}

/// Guard for overwriting the committed baseline from an unclean tree:
/// refuses when `git describe` carries a `-dirty` suffix unless the caller
/// passed `--allow-dirty`.
///
/// # Errors
///
/// Returns the refusal message to print. `None` provenance (no git
/// available) is allowed — there is nothing to mis-attribute.
pub fn dirty_guard(git_describe: Option<&str>, allow_dirty: bool) -> Result<(), String> {
    match git_describe {
        Some(desc) if desc.ends_with("-dirty") && !allow_dirty => Err(format!(
            "refusing to write the baseline from a dirty tree ({desc}); \
             commit first or pass --allow-dirty"
        )),
        _ => Ok(()),
    }
}

/// Whether `porcelain`, the output of `git status --porcelain
/// --untracked-files=no`, lists a tracked change other than `out` (a path
/// relative to the repository root). A tree whose only change is an earlier
/// regeneration of the snapshot file itself still measures the commit.
#[must_use]
fn dirty_besides(porcelain: &str, out: &str) -> bool {
    porcelain.lines().any(|line| line.get(3..) != Some(out))
}

/// `git describe --always --dirty` for a snapshot written to `out`, without
/// the `-dirty` suffix when `out` is the tree's only tracked change (see
/// `dirty_besides`); `None` outside a checkout.
#[must_use]
pub fn describe_for(out: &std::path::Path) -> Option<String> {
    let describe = rt_telemetry::manifest::git_describe()?;
    let git = |args: &[&str]| {
        let run = std::process::Command::new("git").args(args).output().ok()?;
        if !run.status.success() {
            return None;
        }
        String::from_utf8(run.stdout).ok()
    };
    let only_out_changed = || {
        let own = git(&["ls-files", "--full-name", "--", out.to_str()?])?;
        let status = git(&["status", "--porcelain", "--untracked-files=no"])?;
        let own = own.trim_end();
        Some(!own.is_empty() && !dirty_besides(&status, own))
    };
    match describe.strip_suffix("-dirty") {
        Some(clean) if only_out_changed() == Some(true) => Some(clean.to_string()),
        _ => Some(describe),
    }
}

/// Measured passes per point; the fastest is kept. Throughput noise is
/// one-sided — scheduler preemption and frequency scaling only ever slow a
/// pass down — so the max over a few passes estimates the machine's actual
/// capability and keeps `bench-diff`'s one-sided tolerance meaningful on
/// busy hosts. Five passes stretch the sampling window far enough to catch
/// a quiet slice even when a noisy neighbor holds the host for seconds.
const PASSES: u32 = 5;

/// What one timed phase contributes to a snapshot point's tallies.
struct PhaseTally {
    vertices: u64,
    undos: u64,
    /// Candidate placements evaluated (feasible + infeasible children).
    candidates: u64,
    expansions: u64,
}

impl PhaseTally {
    fn of(stats: &sched_search::SearchStats) -> Self {
        PhaseTally {
            vertices: stats.vertices_generated,
            undos: stats.undos,
            candidates: stats.feasible_children + stats.infeasible_children,
            expansions: stats.expansions,
        }
    }
}

fn point(
    name: &str,
    warmup: u64,
    measured: u64,
    mut phase: impl FnMut() -> PhaseTally,
) -> SnapshotPoint {
    for _ in 0..warmup {
        phase();
    }
    let mut best: Option<SnapshotPoint> = None;
    for _ in 0..PASSES {
        let mut vertices = 0u64;
        let mut undos = 0u64;
        let mut candidates = 0u64;
        let mut expansions = 0u64;
        let start = rt_telemetry::MonotonicInstant::now();
        for _ in 0..measured {
            let t = phase();
            vertices += t.vertices;
            undos += t.undos;
            candidates += t.candidates;
            expansions += t.expansions;
        }
        let elapsed = start.elapsed();
        let secs = elapsed.as_secs_f64().max(1e-9);
        let pass = SnapshotPoint {
            name: name.to_string(),
            phases: measured,
            elapsed_us: elapsed.as_micros() as u64,
            phases_per_sec: measured as f64 / secs,
            vertices_per_sec: vertices as f64 / secs,
            undos_per_sec: undos as f64 / secs,
            candidates_per_vertex: candidates as f64 / expansions.max(1) as f64,
            profile: None,
        };
        if best
            .as_ref()
            .is_none_or(|b| pass.phases_per_sec > b.phases_per_sec)
        {
            best = Some(pass);
        }
    }
    best.expect("at least one measured pass")
}

/// A point's stage attribution: the profile with the smallest total of
/// [`PASSES`] profiled passes, each run by `pass`. They run after the timed
/// passes, so the timers can never contaminate the throughput rates.
/// Preemption only ever inflates a stage's wall time, so the smallest total
/// is the cleanest window; averaging would fold the stalls back in, and on
/// a short pass one time-slice can move tens of points of the attribution.
fn cleanest_profile(mut pass: impl FnMut() -> PhaseProfile) -> Option<PointProfile> {
    let cleanest = (0..PASSES)
        .map(|_| pass())
        .min_by_key(PhaseProfile::total_ns)
        .expect("at least one profiled pass");
    PointProfile::from_phase(&cleanest)
}

/// Measures all four canonical points. `measured` is the number of timed
/// phases per point (the CLI default is [`DEFAULT_MEASURED`]; tests pass a
/// small count).
#[must_use]
pub fn collect(measured: u64) -> BenchSnapshot {
    let warmup = (measured / 10).clamp(3, 50);

    // Each point's batch, with its expiry and class columns, is built once,
    // outside the timed loop, as the driver builds its batch once per run.
    // Point 1: raw engine, depth-64 deep dive on 2 workers.
    let dive = {
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
        fn dive_phase(params: &SearchParams, scratch: &mut SearchScratch) -> PhaseTally {
            let mut meter = SchedulingMeter::new(HostParams::free(), Duration::ZERO);
            let out = search_schedule_with(params, &mut meter, scratch);
            let tally = PhaseTally::of(&out.stats);
            scratch.recycle(out.assignments);
            tally
        }
        let mut scratch = SearchScratch::new();
        let mut p = point("deep_dive_64", warmup, measured, || {
            dive_phase(&params, &mut scratch)
        });
        scratch.set_profiling(true);
        p.profile = cleanest_profile(|| {
            for _ in 0..warmup {
                dive_phase(&params, &mut scratch);
            }
            scratch.take_profile()
        });
        p
    };

    // Points 2-3: the full algorithm layer on 8 workers. Phases here are
    // ~1000× slower than the deep dive, so they get fewer iterations.
    let workers = 8;
    let comm = CommModel::constant(Duration::from_millis(2));
    let initial = vec![Time::ZERO; workers];
    let phase_measured = (measured / 40).max(3);
    let full_point = |name: &str, batch: &Batch, comm: &CommModel, initial: &[Time]| {
        let algorithm = Algorithm::rt_sads();
        let mut scratch = PhaseScratch::new();
        let run = |scratch: &mut PhaseScratch| -> PhaseTally {
            let mut meter = SchedulingMeter::new(
                HostParams::new(Duration::from_micros(1)),
                Duration::from_secs(10),
            );
            let mut rng = SimRng::seed_from(SNAPSHOT_SEED);
            let out = algorithm.schedule_phase(
                batch,
                comm,
                initial,
                Time::ZERO,
                Some(200_000),
                Pruning::default(),
                &ResourceEats::new(),
                false,
                &mut meter,
                &mut rng,
                scratch,
            );
            let tally = PhaseTally::of(&out.stats);
            scratch.recycle(out.assignments);
            tally
        };
        let profile_phases = (phase_measured / 4).clamp(3, 10);
        let mut p = point(name, profile_phases, phase_measured, || run(&mut scratch));
        scratch.search.set_profiling(true);
        p.profile = cleanest_profile(|| {
            for _ in 0..profile_phases {
                run(&mut scratch);
            }
            scratch.search.take_profile()
        });
        p
    };
    let mixed_in: Batch = synthetic_batch(150, workers).into_iter().collect();
    let tight_in: Batch = tight_batch(150, workers).into_iter().collect();
    let mixed = full_point("mixed_150x8", &mixed_in, &comm, &initial);
    let tight = full_point("tight_150x8", &tight_in, &comm, &initial);

    // Point 4: the shard-first candidate loop at P=1024 (16 nodes of 64
    // processors on 4 racks). The flat loop would probe all 1024 processors
    // per expansion; the shard screen ranks the 16 node minima and emits
    // only the best `fanout` nodes' processors, so candidates_per_vertex is
    // the complexity win this point exists to gate.
    let sharded = {
        let sharded_workers = 1_024;
        let topo = rt_task::TopologySpec::new(1_024, 16, 4, 0, 2_000, 4_000);
        let sharded_comm = CommModel::hierarchical(topo);
        let sharded_initial = vec![Time::ZERO; sharded_workers];
        let sharded_batch: Batch = synthetic_batch(150, sharded_workers).into_iter().collect();
        full_point(
            "sharded_1024x64",
            &sharded_batch,
            &sharded_comm,
            &sharded_initial,
        )
    };

    // The host's logical CPU count, so a baseline measured on a different
    // machine is identifiable as such.
    let nproc = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let manifest = RunManifest::new("RT-SADS", SNAPSHOT_SEED, workers)
        .calibration(1, Some(2_000))
        .with(
            "points",
            "deep_dive_64,mixed_150x8,tight_150x8,sharded_1024x64",
        )
        .with("measured_phases", measured.to_string())
        .with("nproc", nproc.to_string());

    BenchSnapshot {
        manifest,
        points: vec![dive, mixed, tight, sharded],
    }
}

/// Timed phases per point for the CLI (`rtsads-sim bench-snapshot`).
pub const DEFAULT_MEASURED: u64 = 2_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_and_reports_positive_rates() {
        let snap = collect(120);
        assert_eq!(snap.points.len(), 4);
        assert_eq!(snap.points[0].name, "deep_dive_64");
        for p in &snap.points {
            assert!(p.phases > 0, "{}: no phases", p.name);
            assert!(p.phases_per_sec > 0.0, "{}: zero rate", p.name);
            assert!(p.vertices_per_sec > 0.0, "{}: zero vertices", p.name);
        }
        // The tight batch is built to backtrack; undo traffic must show up.
        let tight = snap
            .points
            .iter()
            .find(|p| p.name == "tight_150x8")
            .expect("tight point present");
        assert!(tight.undos_per_sec > 0.0, "tight point never undid");
        // The sharded point's raison d'etre: candidate evaluations per
        // expansion must sit far below the flat loop's O(P) = 1024 —
        // bounded by fanout x (P / nodes) = 2 x 64 plus screen slack.
        let sharded = snap
            .points
            .iter()
            .find(|p| p.name == "sharded_1024x64")
            .expect("sharded point present");
        assert!(
            sharded.candidates_per_vertex > 0.0,
            "sharded point evaluated no candidates"
        );
        assert!(
            sharded.candidates_per_vertex < 1_024.0,
            "shard-first loop must probe fewer than P=1024 candidates \
             per expansion, got {}",
            sharded.candidates_per_vertex
        );
        // Every point carries a profile section whose stage fractions sum
        // to 1.0.
        for p in &snap.points {
            let prof = p
                .profile
                .as_ref()
                .unwrap_or_else(|| panic!("{}: profiled pass attributed nothing", p.name));
            let sum: f64 = prof.shares.iter().flatten().sum();
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "{}: stage fractions sum to {sum}, not 1.0",
                p.name
            );
            assert!(prof.total_ns > 0, "{}: zero attributed time", p.name);
        }
        // The whole snapshot, every stage share included, round-trips
        // through JSON unchanged.
        let back = BenchSnapshot::parse(&snap.to_json()).expect("round trip");
        assert_eq!(back.manifest.seed, SNAPSHOT_SEED);
        assert!(back.to_json() == snap.to_json(), "the JSON changed");
        // The manifest records the host's logical CPU count.
        assert!(snap
            .manifest
            .extra
            .iter()
            .any(|(k, v)| k.as_str() == "nproc" && v.parse::<usize>().is_ok_and(|n| n >= 1)));
    }

    fn synthetic_snapshot(scale: f64) -> BenchSnapshot {
        let mk = |name: &str, rate: f64| SnapshotPoint {
            name: name.to_string(),
            phases: 100,
            elapsed_us: 1_000,
            phases_per_sec: rate * scale,
            vertices_per_sec: rate * 50.0 * scale,
            undos_per_sec: rate * 2.0 * scale,
            candidates_per_vertex: 0.0,
            profile: None,
        };
        BenchSnapshot {
            manifest: RunManifest::new("RT-SADS", SNAPSHOT_SEED, 8),
            points: vec![mk("deep_dive_64", 90_000.0), mk("mixed_150x8", 40.0)],
        }
    }

    #[test]
    fn diff_passes_within_tolerance_and_on_improvement() {
        let base = synthetic_snapshot(1.0);
        assert!(!diff_snapshots(&base, &synthetic_snapshot(0.85), 0.20).has_regression());
        assert!(!diff_snapshots(&base, &synthetic_snapshot(3.0), 0.20).has_regression());
    }

    #[test]
    fn diff_fails_past_tolerance_and_on_missing_points() {
        let base = synthetic_snapshot(1.0);
        let slow = diff_snapshots(&base, &synthetic_snapshot(0.5), 0.20);
        assert!(slow.has_regression());
        assert_eq!(slow.deltas.iter().filter(|d| d.regressed).count(), 4);
        assert!(slow.render().contains("REGRESSED"));
        assert!(slow.render().contains("verdict: FAIL"));

        let mut truncated = synthetic_snapshot(1.0);
        truncated.points.pop();
        let gone = diff_snapshots(&base, &truncated, 0.20);
        assert!(gone.has_regression());
        assert_eq!(gone.missing, vec!["mixed_150x8".to_string()]);
    }

    #[test]
    fn diff_fails_on_points_absent_from_baseline() {
        let base = synthetic_snapshot(1.0);
        let mut grown = synthetic_snapshot(1.0);
        grown.points.push(SnapshotPoint {
            name: "tight_150x8".to_string(),
            phases: 100,
            elapsed_us: 1_000,
            phases_per_sec: 300.0,
            vertices_per_sec: 15_000.0,
            undos_per_sec: 600.0,
            candidates_per_vertex: 0.0,
            profile: None,
        });
        let diff = diff_snapshots(&base, &grown, 0.20);
        assert!(
            diff.deltas.iter().all(|d| !d.regressed),
            "matched points are all fine"
        );
        assert!(diff.has_regression(), "unexpected point must fail the gate");
        assert_eq!(diff.unexpected, vec!["tight_150x8".to_string()]);
        assert!(diff.render().contains("not in baseline"));
        assert!(diff.render().contains("verdict: FAIL"));

        // Regenerating the baseline (same point set) clears the failure.
        assert!(!diff_snapshots(&grown, &grown, 0.20).has_regression());
    }

    #[test]
    fn candidates_per_vertex_gates_growth_not_drop() {
        let mut base = synthetic_snapshot(1.0);
        base.points[0].candidates_per_vertex = 100.0;
        let mut new = synthetic_snapshot(1.0);

        // Either side at 0.0 (a pre-field baseline or snapshot): skipped.
        let skipped = diff_snapshots(&base, &new, 0.20);
        assert!(skipped
            .deltas
            .iter()
            .all(|d| d.metric != "candidates_per_vertex"));
        assert!(!skipped.has_regression());

        // More candidate work per expansion is the regression direction.
        new.points[0].candidates_per_vertex = 130.0;
        let grew = diff_snapshots(&base, &new, 0.20);
        let d = grew
            .deltas
            .iter()
            .find(|d| d.metric == "candidates_per_vertex")
            .expect("compared");
        assert!(d.regressed, "+30% candidate work must fail a 20% gate");
        assert!(grew.has_regression());

        // Doing less work per expansion can never fail.
        new.points[0].candidates_per_vertex = 10.0;
        assert!(!diff_snapshots(&base, &new, 0.20).has_regression());
    }

    /// A profile from before the select stage.
    fn flat_profile() -> PointProfile {
        let mut shares = [0.1, 0.2, 0.3, 0.0, 0.1, 0.1, 0.2].map(Some);
        shares[Stage::Select as usize] = None;
        PointProfile {
            total_ns: 700,
            shares,
        }
    }

    /// `flat_profile` with `by` of the phase moved from one stage to
    /// another.
    fn moved(from: Stage, to: Stage, by: f64) -> PointProfile {
        let mut p = flat_profile();
        *p.shares[from as usize].as_mut().expect("measured") -= by;
        *p.shares[to as usize].get_or_insert(0.0) += by;
        p
    }

    #[test]
    fn stage_shift_gates_absolute_ten_point_moves_both_ways() {
        let mut base = synthetic_snapshot(1.0);
        base.points[0].profile = Some(flat_profile());
        let mut new = synthetic_snapshot(1.0);

        // Either side without a profile section: comparison skipped.
        let skipped = diff_snapshots(&base, &new, 0.20);
        assert!(skipped
            .deltas
            .iter()
            .all(|d| !d.metric.starts_with("profile.")));
        assert!(!skipped.has_regression());

        // An injected shift past ten points on one stage fails the gate,
        // in either direction (time moved INTO cost / OUT of fill).
        new.points[0].profile = Some(moved(Stage::Fill, Stage::Cost, 0.12));
        let diff = diff_snapshots(&base, &new, 0.20);
        let regressed: Vec<&str> = diff
            .deltas
            .iter()
            .filter(|d| d.regressed)
            .map(|d| d.metric.as_str())
            .collect();
        assert_eq!(regressed, vec!["profile.fill", "profile.cost"]);
        assert!(diff.has_regression());

        // A shift inside the ten-point band passes clean.
        new.points[0].profile = Some(moved(Stage::Fill, Stage::Cost, 0.05));
        assert!(!diff_snapshots(&base, &new, 0.20).has_regression());
    }

    #[test]
    fn unknown_stages_are_skipped_with_a_note_not_failed() {
        // Baseline predates the `select` stage (None); the new snapshot
        // carries it. Positional matching would pair mismatched stages and
        // trip the ±10pp gate; matching per stage must skip it with a note.
        let mut base = synthetic_snapshot(1.0);
        base.points[0].profile = Some(flat_profile());
        let mut new = synthetic_snapshot(1.0);
        // Carve the new stage out of cost so every shared stage stays
        // within the gate and the totals still sum to 1.0.
        new.points[0].profile = Some(moved(Stage::Cost, Stage::Select, 0.08));
        let diff = diff_snapshots(&base, &new, 0.20);
        assert!(
            !diff.has_regression(),
            "a stage the baseline predates must not fail the gate: {}",
            diff.render()
        );
        assert_eq!(
            diff.skipped_stages,
            vec!["deep_dive_64/profile.select".to_string()]
        );
        assert!(diff.render().contains("stage comparison skipped"));
        assert!(diff.to_json().contains("skipped_stages"));
        // The shared stages are still compared.
        assert!(diff
            .deltas
            .iter()
            .any(|d| d.metric == "profile.cost" && !d.regressed));

        // And the reverse direction (baseline has a stage the new snapshot
        // lost) is also a note, not a positional mispairing.
        let diff_rev = diff_snapshots(&new, &base, 0.20);
        assert!(!diff_rev.has_regression());
        assert_eq!(
            diff_rev.skipped_stages,
            vec!["deep_dive_64/profile.select".to_string()]
        );
    }

    #[test]
    fn diff_json_carries_deltas_and_verdict() {
        let base = synthetic_snapshot(1.0);
        let json = diff_snapshots(&base, &synthetic_snapshot(0.5), 0.20).to_json();
        assert!(json.contains("\"verdict\": \"FAIL\""));
        assert!(json.contains("\"metric\": \"phases_per_sec\""));
        assert!(json.contains("\"regressed\": true"));
        let clean = diff_snapshots(&base, &base, 0.20).to_json();
        assert!(clean.contains("\"verdict\": \"PASS\""));
        assert!(clean.ends_with('\n'));
    }

    #[test]
    fn dirty_guard_blocks_only_dirty_without_override() {
        assert!(dirty_guard(Some("v0-5-gabc123-dirty"), false).is_err());
        assert!(dirty_guard(Some("v0-5-gabc123-dirty"), true).is_ok());
        assert!(dirty_guard(Some("v0-5-gabc123"), false).is_ok());
        assert!(dirty_guard(None, false).is_ok());
    }

    #[test]
    fn only_the_snapshot_file_itself_may_differ() {
        let out = "BENCH_search.json";
        assert!(!dirty_besides("", out));
        assert!(!dirty_besides(" M BENCH_search.json\n", out));
        assert!(!dirty_besides("M  BENCH_search.json\n", out));
        assert!(dirty_besides(
            " M BENCH_search.json\n M src/snapshot.rs\n",
            out
        ));
        assert!(dirty_besides("MM src/snapshot.rs\n", out));
        assert!(dirty_besides(" M results/BENCH_search.json\n", out));
        assert!(dirty_besides("R  BENCH_search.json -> old.json\n", out));
    }
}
