//! Lightweight tracing of simulation activity.
//!
//! The scheduler driver emits [`TraceEvent`]s at interesting points
//! (scheduling-phase boundaries, task dispatch, completions); a
//! [`TraceSink`] decides what to do with them. The default, [`Tracer`],
//! drops every event and reports itself disabled, so producers skip
//! building events at the cost of one branch per emission;
//! [`RecordingTracer`] collects events for assertions in tests and for the
//! experiment harness's overhead reports.
//!
//! Every event serializes, so structured sinks (the telemetry crate's JSONL
//! writer, the Perfetto exporter) can stream them without a parallel
//! schema. Events derive `Serialize`/`Deserialize`; the [`PhaseProfile`]
//! they carry writes and reads its keys from the [`Stage`] table.

use serde::{Deserialize, Error, Serialize, Value};

use crate::time::{Duration, Time};

/// One feasibility probe of the phase-level viability screen: the operands
/// of the paper's test `t_c + R·Q_s(j) + se_lk ≤ d_l` for one candidate
/// processor, with the phase-end bound already folded into `available_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScreenProbe {
    /// The candidate processor's index.
    pub processor: usize,
    /// When that processor could start new work (`max(busy_k, t_s + Q_s)`),
    /// in microseconds of virtual time.
    pub available_us: u64,
    /// The demand `p_l + c_lk` the assignment would place on it, in
    /// microseconds.
    pub demand_us: u64,
    /// The resulting completion `se_lk = available + demand`, in
    /// microseconds; the screen fails when this exceeds the deadline on
    /// every processor.
    pub completion_us: u64,
}

/// One candidate placement evaluated (and possibly rejected) for a task
/// that ended up in the delivered schedule: its predicted completion and
/// the cost-function value `ce_k` (the resulting makespan) the search
/// ranked it by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementProbe {
    /// The candidate processor's index.
    pub processor: usize,
    /// Predicted completion on that processor, in microseconds.
    pub completion_us: u64,
    /// The cost function `ce_k`: the partial schedule's makespan if this
    /// candidate were chosen, in microseconds.
    pub cost_us: u64,
    /// The node (shard) the candidate processor belongs to on a
    /// hierarchical platform; `0` on the flat machine, where the whole
    /// platform is one fault and placement domain. Absent in pre-topology
    /// traces, so it deserializes to `0`.
    #[serde(default)]
    pub shard: usize,
}

/// The search pipeline stages the stage profiler attributes wall time to,
/// in pipeline order. The discriminants index [`PhaseProfile`]. This enum,
/// [`Stage::name`] and [`Stage::WIRE_ORDER`] are the one list of stages
/// that every consumer iterates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Phase-level feasibility screen over the batch (`screen_batch`): the
    /// (affinity class, node) cost table, one threshold per class, then one
    /// comparison per task, plus the rejected tasks' probe lists under
    /// provenance.
    Screen,
    /// Candidate-column sync of an assignment-oriented expansion, its cold
    /// cells priced from the phase's cost table (none under the
    /// sequence-oriented layout, which evaluates in the cost fold).
    Fill,
    /// The round's one quantum charge, then the `ce_k` cost fold and
    /// feasibility classification of each candidate it charged.
    Cost,
    /// Child ordering and push: the key sort, one pass each extending the
    /// arena and the candidate list, and the best-vertex pass.
    Select,
    /// Shard gate and shard-first candidate ranking (hierarchical runs),
    /// one bound per node from the phase's cost table.
    Shard,
    /// `PathState::apply` chain walks when switching branches.
    Apply,
    /// `PathState::undo` pops when backtracking to a common ancestor.
    Undo,
}

/// Number of [`Stage`]s: the length of a [`PhaseProfile`].
pub const STAGE_COUNT: usize = 7;

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = {
        use Stage::*;
        [Screen, Fill, Cost, Select, Shard, Apply, Undo]
    };

    /// The order records write their per-stage keys in: the stages of the
    /// first schema, then each later stage in the order it was added. A new
    /// stage only appends, so files already written keep their key order.
    pub const WIRE_ORDER: [Stage; STAGE_COUNT] = {
        use Stage::*;
        [Screen, Fill, Cost, Shard, Apply, Undo, Select]
    };

    /// How many stages of [`Stage::WIRE_ORDER`] the first schema wrote.
    const WIRE_REQUIRED: usize = 6;

    /// The stage's label in every report and the stem of its keys.
    #[must_use]
    pub fn name(self) -> &'static str {
        ["screen", "fill", "cost", "select", "shard", "apply", "undo"][self as usize]
    }

    /// Appends `"<name><suffix>":<value>` for every stage in wire order,
    /// comma-separated, without the enclosing braces.
    pub fn write_keys<T: Serialize>(out: &mut String, suffix: &str, value: impl Fn(Stage) -> T) {
        for (i, stage) in Stage::WIRE_ORDER.into_iter().enumerate() {
            out.push_str(if i == 0 { "\"" } else { ",\"" });
            out.push_str(stage.name());
            out.push_str(suffix);
            out.push_str("\":");
            value(stage).write_json(out);
        }
    }

    /// Reads each stage's value from the object `v` by its key,
    /// `<name><suffix>`, ignoring other keys. A stage added after the first
    /// schema reads as `None` when its key is missing.
    ///
    /// # Errors
    ///
    /// When `v` is not an object, a value is not a `T`, or a first-schema
    /// stage's key is missing (the message names `record`).
    pub fn read_keys<T: Deserialize>(
        v: &Value,
        suffix: &str,
        record: &str,
    ) -> Result<[Option<T>; STAGE_COUNT], Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::custom(format!("expected object for {record}")))?;
        let mut out = std::array::from_fn(|_| None);
        for (i, stage) in Stage::WIRE_ORDER.into_iter().enumerate() {
            let name = stage.name();
            let found = obj
                .iter()
                .find(|(k, _)| k.strip_suffix(suffix) == Some(name));
            out[stage as usize] = found.map(|(_, value)| T::from_value(value)).transpose()?;
            if out[stage as usize].is_none() && i < Stage::WIRE_REQUIRED {
                let msg = format!("missing field `{name}{suffix}` in {record}");
                return Err(Error::custom(msg));
            }
        }
        Ok(out)
    }
}

/// Wall nanoseconds of one scheduling phase per pipeline stage, measured
/// by the stage profiler and indexed by [`Stage`]. Like
/// [`TraceEvent::SchedulerOverhead`] it is emitted only on request, because
/// wall time is nondeterministic.
///
/// On the wire it is an object of `<stage>_ns` keys in
/// [`Stage::WIRE_ORDER`]. Readers ignore schema version 1's merge stage and
/// subtree walks, and read a missing select key as 0.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseProfile(pub [u64; STAGE_COUNT]);

impl std::ops::Index<Stage> for PhaseProfile {
    type Output = u64;
    #[inline]
    fn index(&self, stage: Stage) -> &u64 {
        &self.0[stage as usize]
    }
}

impl std::ops::IndexMut<Stage> for PhaseProfile {
    #[inline]
    fn index_mut(&mut self, stage: Stage) -> &mut u64 {
        &mut self.0[stage as usize]
    }
}

impl PhaseProfile {
    /// The stage names and their nanoseconds, in pipeline order.
    #[must_use]
    pub fn stages(&self) -> [(&'static str, u64); STAGE_COUNT] {
        Stage::ALL.map(|stage| (stage.name(), self[stage]))
    }

    /// Total attributed wall nanoseconds across all stages.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.0.iter().sum()
    }
}

impl Serialize for PhaseProfile {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        Stage::write_keys(out, "_ns", |stage| self[stage]);
        out.push('}');
    }
}

impl Deserialize for PhaseProfile {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let ns = Stage::read_keys::<u64>(v, "_ns", "PhaseProfile")?;
        Ok(PhaseProfile(ns.map(Option::unwrap_or_default)))
    }
}

/// One trace record emitted by the simulation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A task arrived and was admitted into the current batch — the first
    /// link of its decision chain, carrying the parameters every later
    /// feasibility test uses.
    TaskAdmitted {
        /// The task's identifier.
        task: u64,
        /// Its arrival instant, in microseconds.
        arrival_us: u64,
        /// Its absolute deadline `d_l`, in microseconds.
        deadline_us: u64,
        /// Its processing time `p_l`, in microseconds.
        processing_us: u64,
    },
    /// A scheduling phase started with the given batch size and allocated
    /// quantum.
    PhaseStarted {
        /// Phase counter `j`.
        phase: u64,
        /// Number of tasks in `Batch(j)`.
        batch_len: usize,
        /// The allocated quantum `Q_s(j)`.
        quantum: Duration,
    },
    /// A batch task failed the phase-level viability screen: against the
    /// initial finish times it could not meet its deadline on any
    /// processor, so the whole phase tree excluded it. The probes carry the
    /// actual feasibility-test numbers per candidate processor.
    TaskScreened {
        /// The task's identifier.
        task: u64,
        /// The phase whose screen rejected it.
        phase: u64,
        /// The deadline `d_l` the probes were tested against, in
        /// microseconds.
        deadline_us: u64,
        /// One feasibility probe per candidate processor.
        probes: Vec<ScreenProbe>,
    },
    /// The scheduler committed a task to a processor in the delivered
    /// schedule, recording the cost-function values of the chosen placement
    /// and of the rejected alternatives evaluated at the same expansion.
    PlacementDecided {
        /// The task's identifier.
        task: u64,
        /// The phase that made the decision.
        phase: u64,
        /// The chosen processor's index.
        processor: usize,
        /// Predicted completion on the chosen processor, in microseconds.
        completion_us: u64,
        /// The chosen placement's cost `ce_k` (resulting makespan), in
        /// microseconds.
        cost_us: u64,
        /// The node (shard) the chosen processor belongs to — `Some` only
        /// on hierarchical platforms with two or more nodes, mirroring the
        /// per-probe [`PlacementProbe::shard`]. `None` on flat runs and in
        /// pre-topology traces (the field deserializes to `None` when
        /// absent).
        shard: Option<usize>,
        /// The alternative placements for this task that the search
        /// evaluated and ranked lower (empty for one-shot choices).
        rejected: Vec<PlacementProbe>,
    },
    /// Physical wall-clock time the host spent computing a phase's
    /// schedule, next to the virtual budget it was allocated — the paper's
    /// self-adjusting-overhead claim made directly observable. Emitted only
    /// when the driver is configured to measure it, because wall time is
    /// nondeterministic and would break trace-level differential tests.
    SchedulerOverhead {
        /// The phase that was measured.
        phase: u64,
        /// The allocated quantum `Q_s(j)`, in microseconds of virtual time.
        allocated_us: u64,
        /// Wall-clock time `schedule_phase` actually took, in nanoseconds.
        wall_ns: u64,
    },
    /// Stage-level wall-time attribution of the phase's scheduling work,
    /// measured by the search engine's self-profiler. Emitted only when the
    /// driver is configured to profile (same opt-in rationale as
    /// [`TraceEvent::SchedulerOverhead`]: wall time is nondeterministic and
    /// would break trace-level differential tests).
    PhaseProfiled {
        /// The phase that was profiled.
        phase: u64,
        /// The stage breakdown and per-walk telemetry.
        profile: PhaseProfile,
    },
    /// A scheduling phase ended.
    PhaseEnded {
        /// Phase counter `j`.
        phase: u64,
        /// Number of tasks scheduled by the phase.
        scheduled: usize,
        /// Virtual scheduling time actually consumed.
        consumed: Duration,
        /// Number of search vertices generated during the phase.
        vertices: u64,
        /// Number of backtracks the search performed during the phase.
        backtracks: u64,
        /// Assignments reverted by the incremental engine while switching
        /// branches (each an O(1) `PathState::undo`).
        undos: u64,
        /// Apply steps a per-pop root replay would have performed that the
        /// incremental engine skipped (shared path prefixes, summed over
        /// pops).
        replay_avoided: u64,
    },
    /// A task was assigned to a processor by the scheduling phase that just
    /// ended; its execution (and any data shipping) begins after delivery.
    TaskDispatched {
        /// The task's identifier.
        task: u64,
        /// The target processor's index.
        processor: usize,
        /// Slack at dispatch: `deadline - execution_start`, in microseconds
        /// (negative when the task starts past its deadline).
        slack_us: i64,
    },
    /// Communication delay paid before a dispatched task could start: the
    /// portion of its service time spent shipping remote data.
    CommDelay {
        /// The task's identifier.
        task: u64,
        /// The executing processor's index.
        processor: usize,
        /// The delay in microseconds.
        delay_us: u64,
    },
    /// A task began executing on a worker processor.
    TaskStarted {
        /// The task's identifier.
        task: u64,
        /// The executing processor's index.
        processor: usize,
    },
    /// A task finished executing.
    TaskCompleted {
        /// The task's identifier.
        task: u64,
        /// The executing processor's index.
        processor: usize,
        /// Whether it completed by its deadline.
        met_deadline: bool,
        /// `completion - deadline` in microseconds: positive for misses,
        /// zero or negative for hits.
        lateness_us: i64,
    },
    /// A task was dropped from a batch because its deadline had already
    /// passed (or could no longer be met) before it was ever scheduled.
    TaskDropped {
        /// The task's identifier.
        task: u64,
    },
    /// A task still waiting in the batch saw its deadline expire while a
    /// scheduling phase was running; it will be filtered (and counted
    /// dropped) at the start of the next phase.
    TaskExpiredMidPhase {
        /// The task's identifier.
        task: u64,
        /// The phase during which the deadline expired.
        phase: u64,
    },
    /// A working processor failed at this instant: queued-but-unstarted
    /// tasks were orphaned back to the host, and the in-flight task (if
    /// any) was lost or allowed to finish per the run's in-flight policy.
    ProcessorFailed {
        /// The failed processor's index.
        processor: usize,
        /// `true` for a permanent (fail-stop) failure, `false` when a
        /// recovery event will follow.
        fail_stop: bool,
        /// Queued tasks handed back to the host for re-batching.
        orphaned: usize,
        /// In-flight tasks killed mid-execution (0 or 1).
        lost: usize,
    },
    /// A previously failed processor came back up and is again available
    /// for placement (it rejoins empty — orphaned work was re-batched).
    ProcessorRecovered {
        /// The recovered processor's index.
        processor: usize,
    },
    /// A dispatched-but-unstarted task was handed back to the host (its
    /// processor failed, or the dispatch message was lost); it re-enters
    /// the next batch and faces the expiry filter again.
    TaskOrphaned {
        /// The task's identifier.
        task: u64,
        /// The processor it had been dispatched to.
        processor: usize,
    },
    /// A task that was executing when its processor failed was killed and
    /// cannot be recovered (the `Lost` in-flight policy).
    TaskLost {
        /// The task's identifier.
        task: u64,
        /// The processor that failed under it.
        processor: usize,
    },
    /// Free-form annotation.
    Note(String),
}

impl TraceEvent {
    /// Every kind name [`TraceEvent::kind`] can return, for exhaustiveness
    /// tests: a test can assert its sample set covers this list, and the
    /// `match` in `kind` itself fails to compile when a variant is added
    /// without one.
    pub const KINDS: &'static [&'static str] = &[
        "TaskAdmitted",
        "PhaseStarted",
        "TaskScreened",
        "PlacementDecided",
        "SchedulerOverhead",
        "PhaseProfiled",
        "PhaseEnded",
        "TaskDispatched",
        "CommDelay",
        "TaskStarted",
        "TaskCompleted",
        "TaskDropped",
        "TaskExpiredMidPhase",
        "ProcessorFailed",
        "ProcessorRecovered",
        "TaskOrphaned",
        "TaskLost",
        "Note",
    ];

    /// The variant's name, matching its serde tag.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TaskAdmitted { .. } => "TaskAdmitted",
            TraceEvent::PhaseStarted { .. } => "PhaseStarted",
            TraceEvent::TaskScreened { .. } => "TaskScreened",
            TraceEvent::PlacementDecided { .. } => "PlacementDecided",
            TraceEvent::SchedulerOverhead { .. } => "SchedulerOverhead",
            TraceEvent::PhaseProfiled { .. } => "PhaseProfiled",
            TraceEvent::PhaseEnded { .. } => "PhaseEnded",
            TraceEvent::TaskDispatched { .. } => "TaskDispatched",
            TraceEvent::CommDelay { .. } => "CommDelay",
            TraceEvent::TaskStarted { .. } => "TaskStarted",
            TraceEvent::TaskCompleted { .. } => "TaskCompleted",
            TraceEvent::TaskDropped { .. } => "TaskDropped",
            TraceEvent::TaskExpiredMidPhase { .. } => "TaskExpiredMidPhase",
            TraceEvent::ProcessorFailed { .. } => "ProcessorFailed",
            TraceEvent::ProcessorRecovered { .. } => "ProcessorRecovered",
            TraceEvent::TaskOrphaned { .. } => "TaskOrphaned",
            TraceEvent::TaskLost { .. } => "TaskLost",
            TraceEvent::Note(_) => "Note",
        }
    }
}

/// Destination for trace events.
///
/// # Example
///
/// ```
/// use paragon_des::trace::{RecordingTracer, TraceEvent, TraceSink, Tracer};
/// use paragon_des::Time;
///
/// let mut rec = RecordingTracer::new();
/// rec.emit(Time::ZERO, TraceEvent::Note("hello".into()));
/// assert_eq!(rec.events().len(), 1);
/// ```
pub trait TraceSink {
    /// Records `event` as having happened at `now`.
    fn emit(&mut self, now: Time, event: TraceEvent);

    /// Whether emissions are observed at all. Producers may skip building
    /// expensive events when this returns `false`.
    ///
    /// A sink must give the same answer for the whole of a run: the driver
    /// reads it step by step, so a sink that changed its answer mid-run
    /// would see some of a phase's events and not the others.
    fn enabled(&self) -> bool {
        true
    }
}

/// The default sink: drops every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tracer;

impl Tracer {
    /// A tracer that drops every event.
    #[inline]
    #[must_use]
    pub fn disabled() -> Self {
        Tracer
    }
}

impl TraceSink for Tracer {
    #[inline]
    fn emit(&mut self, _now: Time, _event: TraceEvent) {}

    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

/// A sink that records all events in memory, for tests and reports.
#[derive(Debug, Default)]
pub struct RecordingTracer {
    events: Vec<(Time, TraceEvent)>,
}

impl RecordingTracer {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// All recorded `(time, event)` pairs in emission order.
    #[must_use]
    pub fn events(&self) -> &[(Time, TraceEvent)] {
        &self.events
    }

    /// Consumes the recorder and returns the events.
    #[must_use]
    pub fn into_events(self) -> Vec<(Time, TraceEvent)> {
        self.events
    }

    /// Counts events matching a predicate.
    pub fn count_matching<F: Fn(&TraceEvent) -> bool>(&self, pred: F) -> usize {
        self.events.iter().filter(|(_, e)| pred(e)).count()
    }
}

impl TraceSink for RecordingTracer {
    fn emit(&mut self, now: Time, event: TraceEvent) {
        self.events.push((now, event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<TraceEvent> {
        vec![
            TraceEvent::TaskAdmitted {
                task: 1,
                arrival_us: 0,
                deadline_us: 900,
                processing_us: 250,
            },
            TraceEvent::TaskScreened {
                task: 2,
                phase: 1,
                deadline_us: 400,
                probes: vec![
                    ScreenProbe {
                        processor: 0,
                        available_us: 300,
                        demand_us: 200,
                        completion_us: 500,
                    },
                    ScreenProbe {
                        processor: 1,
                        available_us: 350,
                        demand_us: 180,
                        completion_us: 530,
                    },
                ],
            },
            TraceEvent::PlacementDecided {
                task: 3,
                phase: 1,
                processor: 2,
                completion_us: 700,
                cost_us: 900,
                shard: Some(1),
                rejected: vec![PlacementProbe {
                    processor: 0,
                    completion_us: 950,
                    cost_us: 950,
                    shard: 0,
                }],
            },
            TraceEvent::SchedulerOverhead {
                phase: 1,
                allocated_us: 100,
                wall_ns: 48_213,
            },
            TraceEvent::PhaseProfiled {
                phase: 1,
                profile: PhaseProfile([1_000, 12_000, 30_000, 0, 0, 4_000, 2_500]),
            },
            TraceEvent::PhaseStarted {
                phase: 1,
                batch_len: 10,
                quantum: Duration::from_micros(100),
            },
            TraceEvent::PhaseEnded {
                phase: 1,
                scheduled: 4,
                consumed: Duration::from_micros(80),
                vertices: 40,
                backtracks: 3,
                undos: 7,
                replay_avoided: 21,
            },
            TraceEvent::TaskDispatched {
                task: 3,
                processor: 2,
                slack_us: -17,
            },
            TraceEvent::CommDelay {
                task: 3,
                processor: 2,
                delay_us: 2_000,
            },
            TraceEvent::TaskStarted {
                task: 3,
                processor: 2,
            },
            TraceEvent::TaskCompleted {
                task: 3,
                processor: 2,
                met_deadline: true,
                lateness_us: -50,
            },
            TraceEvent::TaskCompleted {
                task: 4,
                processor: 1,
                met_deadline: false,
                lateness_us: 120,
            },
            TraceEvent::TaskDropped { task: 5 },
            TraceEvent::TaskExpiredMidPhase { task: 6, phase: 2 },
            TraceEvent::ProcessorFailed {
                processor: 1,
                fail_stop: false,
                orphaned: 3,
                lost: 1,
            },
            TraceEvent::ProcessorRecovered { processor: 1 },
            TraceEvent::TaskOrphaned {
                task: 7,
                processor: 1,
            },
            TraceEvent::TaskLost {
                task: 8,
                processor: 1,
            },
            TraceEvent::Note("hi".into()),
        ]
    }

    #[test]
    fn recording_tracer_collects_in_order() {
        let mut rec = RecordingTracer::new();
        rec.emit(Time::from_micros(1), TraceEvent::TaskDropped { task: 9 });
        rec.emit(
            Time::from_micros(2),
            TraceEvent::TaskStarted {
                task: 9,
                processor: 0,
            },
        );
        assert_eq!(rec.events().len(), 2);
        assert_eq!(rec.events()[0].0, Time::from_micros(1));
        assert!(rec.enabled());
        assert_eq!(
            rec.count_matching(|e| matches!(e, TraceEvent::TaskDropped { .. })),
            1
        );
    }

    #[test]
    fn disabled_tracer_reports_disabled() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        // emitting to it must be harmless
        let mut t = t;
        t.emit(Time::ZERO, TraceEvent::Note("x".into()));
    }

    /// `all_variants` must produce at least one instance of every variant:
    /// the `kind()` match is compile-time exhaustive, so together these
    /// guarantee a new variant cannot ship without a pinned JSON line (the
    /// serde test below walks the same samples).
    #[test]
    fn sample_set_covers_every_kind() {
        let seen: std::collections::BTreeSet<&'static str> =
            all_variants().iter().map(TraceEvent::kind).collect();
        for kind in TraceEvent::KINDS {
            assert!(seen.contains(kind), "all_variants() is missing {kind}");
        }
        assert_eq!(seen.len(), TraceEvent::KINDS.len());
    }

    /// The compact JSON of each `all_variants()` sample, in order. Pinned
    /// byte for byte: JSONL traces are compared by digest across builds.
    const ALL_VARIANTS_JSON: [&str; 19] = [
        r#"{"TaskAdmitted":{"task":1,"arrival_us":0,"deadline_us":900,"processing_us":250}}"#,
        r#"{"TaskScreened":{"task":2,"phase":1,"deadline_us":400,"probes":[{"processor":0,"available_us":300,"demand_us":200,"completion_us":500},{"processor":1,"available_us":350,"demand_us":180,"completion_us":530}]}}"#,
        r#"{"PlacementDecided":{"task":3,"phase":1,"processor":2,"completion_us":700,"cost_us":900,"shard":1,"rejected":[{"processor":0,"completion_us":950,"cost_us":950,"shard":0}]}}"#,
        r#"{"SchedulerOverhead":{"phase":1,"allocated_us":100,"wall_ns":48213}}"#,
        r#"{"PhaseProfiled":{"phase":1,"profile":{"screen_ns":1000,"fill_ns":12000,"cost_ns":30000,"shard_ns":0,"apply_ns":4000,"undo_ns":2500,"select_ns":0}}}"#,
        r#"{"PhaseStarted":{"phase":1,"batch_len":10,"quantum":100}}"#,
        r#"{"PhaseEnded":{"phase":1,"scheduled":4,"consumed":80,"vertices":40,"backtracks":3,"undos":7,"replay_avoided":21}}"#,
        r#"{"TaskDispatched":{"task":3,"processor":2,"slack_us":-17}}"#,
        r#"{"CommDelay":{"task":3,"processor":2,"delay_us":2000}}"#,
        r#"{"TaskStarted":{"task":3,"processor":2}}"#,
        r#"{"TaskCompleted":{"task":3,"processor":2,"met_deadline":true,"lateness_us":-50}}"#,
        r#"{"TaskCompleted":{"task":4,"processor":1,"met_deadline":false,"lateness_us":120}}"#,
        r#"{"TaskDropped":{"task":5}}"#,
        r#"{"TaskExpiredMidPhase":{"task":6,"phase":2}}"#,
        r#"{"ProcessorFailed":{"processor":1,"fail_stop":false,"orphaned":3,"lost":1}}"#,
        r#"{"ProcessorRecovered":{"processor":1}}"#,
        r#"{"TaskOrphaned":{"task":7,"processor":1}}"#,
        r#"{"TaskLost":{"task":8,"processor":1}}"#,
        r#"{"Note":"hi"}"#,
    ];

    #[test]
    fn serde_round_trips_all_variants() {
        let samples = all_variants();
        assert_eq!(samples.len(), ALL_VARIANTS_JSON.len());
        for (event, pinned) in samples.into_iter().zip(ALL_VARIANTS_JSON) {
            let text = serde_json::to_string(&event).expect("serializes");
            assert_eq!(text, pinned, "{}", event.kind());
            let back: TraceEvent = serde_json::from_str(&text).expect("deserializes");
            assert_eq!(back, event);
        }
    }

    /// Each stage owns one slot of the profile, its name at its pipeline
    /// position in `stages()`, and one key on the wire.
    #[test]
    fn each_stage_has_one_slot_one_name_and_one_key() {
        let mut all = PhaseProfile::default();
        for (k, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, k, "ALL is in discriminant order");
            let mut p = PhaseProfile::default();
            p[stage] = 1 << k;
            all[stage] = 1 << k;
            assert_eq!(p.stages()[k], (stage.name(), 1 << k));
            let key = format!("\"{}_ns\":{}", stage.name(), 1 << k);
            assert!(serde_json::to_string(&p).unwrap().contains(&key), "{key}");
        }
        assert_eq!(all.total_ns(), 127);
        // Distinct names: every slot reads back from its own key.
        let text = serde_json::to_string(&all).unwrap();
        assert_eq!(serde_json::from_str::<PhaseProfile>(&text).unwrap(), all);
    }

    /// A `PhaseProfiled` line as schema version 1 wrote it, with the merge
    /// stage and the walk list of the retired parallel engine.
    const PHASE_PROFILED_V1: &str = r#"{"PhaseProfiled":{"phase":1,"profile":{"screen_ns":1000,"fill_ns":12000,"cost_ns":30000,"shard_ns":0,"apply_ns":4000,"undo_ns":2500,"merge_ns":800,"select_ns":0,"walks":[{"termination":"dead_end","vertices":40,"end_depth":5,"pops":3,"committed":true},{"termination":"leaf","vertices":10,"end_depth":8,"pops":0,"committed":true}]}}}"#;

    #[test]
    fn version_1_phase_profile_parses_to_the_same_stages() {
        let event: TraceEvent = serde_json::from_str(PHASE_PROFILED_V1).expect("v1 parses");
        let TraceEvent::PhaseProfiled { phase, profile } = event else {
            panic!("not a PhaseProfiled event: {event:?}");
        };
        assert_eq!(phase, 1);
        assert_eq!(
            profile.stages(),
            [
                ("screen", 1_000),
                ("fill", 12_000),
                ("cost", 30_000),
                ("select", 0),
                ("shard", 0),
                ("apply", 4_000),
                ("undo", 2_500),
            ]
        );
        // And it re-serializes as the current schema's line.
        let sample = all_variants()
            .into_iter()
            .position(|e| e.kind() == "PhaseProfiled")
            .expect("sampled");
        assert_eq!(
            serde_json::to_string(&TraceEvent::PhaseProfiled { phase, profile }).unwrap(),
            ALL_VARIANTS_JSON[sample]
        );

        // Before the select stage: select reads as 0, other gaps are errors.
        let pre_select = r#"{"PhaseProfiled":{"phase":2,"profile":{"screen_ns":1,"fill_ns":2,"cost_ns":3,"shard_ns":4,"apply_ns":5,"undo_ns":6}}}"#;
        let Ok(TraceEvent::PhaseProfiled { profile, .. }) = serde_json::from_str(pre_select) else {
            panic!("a line without select_ns must parse");
        };
        assert_eq!(profile.stages().map(|(_, ns)| ns), [1, 2, 3, 0, 4, 5, 6]);
        let no_fill = pre_select.replace(r#""fill_ns":2,"#, "");
        let err = serde_json::from_str::<TraceEvent>(&no_fill).unwrap_err();
        assert_eq!(err.to_string(), "missing field `fill_ns` in PhaseProfile");
    }

    #[test]
    fn into_events_round_trip() {
        let mut rec = RecordingTracer::new();
        rec.emit(Time::ZERO, TraceEvent::Note("a".into()));
        let evs = rec.into_events();
        assert_eq!(evs.len(), 1);
    }
}
