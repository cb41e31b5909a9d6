//! Lightweight tracing of simulation activity.
//!
//! The scheduler driver emits [`TraceEvent`]s at interesting points
//! (scheduling-phase boundaries, task dispatch, completions); a [`Tracer`]
//! decides what to do with them. The default is [`Tracer::disabled`], which
//! costs one branch per emission; [`RecordingTracer`] collects events for
//! assertions in tests and for the experiment harness's overhead reports.
//!
//! Every event derives `Serialize`/`Deserialize`, so structured sinks (the
//! telemetry crate's JSONL writer, the Perfetto exporter) can stream them
//! without a parallel schema.

use std::fmt;

use serde::{Deserialize, Serialize};

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

/// Wall-time attribution of one scheduling phase across the search engine's
/// pipeline stages. All durations are monotonic wall nanoseconds measured
/// by the stage profiler; like [`TraceEvent::SchedulerOverhead`] this is
/// emitted only on request, because wall time is nondeterministic.
///
/// Schema version 1 also carried a merge stage and a list of subtree walks
/// from the retired parallel search engine. Readers ignore both keys, so
/// version 1 records parse to the same seven stages.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Phase-level feasibility screen (`screen_batch`).
    pub screen_ns: u64,
    /// SoA completion-column fill (`completions_into`).
    pub fill_ns: u64,
    /// Cost fold: per-candidate `ce_k` accounting and feasibility
    /// classification.
    pub cost_ns: u64,
    /// Shard gate and shard-first candidate ranking (hierarchical runs).
    pub shard_ns: u64,
    /// `PathState::apply` chain walks when switching branches.
    pub apply_ns: u64,
    /// `PathState::undo` pops when backtracking to a common ancestor.
    pub undo_ns: u64,
    /// Child ordering and push: sorting the candidate batch and the
    /// branch/best-vertex selection loop. Absent in pre-select traces, so
    /// it deserializes to `0`.
    #[serde(default)]
    pub select_ns: u64,
}

impl PhaseProfile {
    /// The stage names and their accumulated nanoseconds, in pipeline
    /// order. Every consumer (collector, Perfetto, the `profile`
    /// subcommand, the bench snapshot) iterates this one list, so a new
    /// stage added here is automatically picked up everywhere.
    #[must_use]
    pub fn stages(&self) -> [(&'static str, u64); 7] {
        [
            ("screen", self.screen_ns),
            ("fill", self.fill_ns),
            ("cost", self.cost_ns),
            ("select", self.select_ns),
            ("shard", self.shard_ns),
            ("apply", self.apply_ns),
            ("undo", self.undo_ns),
        ]
    }

    /// Total attributed wall nanoseconds across all stages.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.stages().iter().map(|(_, ns)| ns).sum()
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

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::TaskAdmitted {
                task,
                arrival_us,
                deadline_us,
                processing_us,
            } => write!(
                f,
                "task {task} admitted (arrival={arrival_us}us deadline={deadline_us}us \
                 p={processing_us}us)"
            ),
            TraceEvent::TaskScreened {
                task,
                phase,
                deadline_us,
                probes,
            } => write!(
                f,
                "task {task} screened out in phase {phase}: deadline={deadline_us}us \
                 infeasible on all {} processors",
                probes.len()
            ),
            TraceEvent::PlacementDecided {
                task,
                phase,
                processor,
                completion_us,
                cost_us,
                shard,
                rejected,
            } => {
                write!(f, "task {task} placed on P{processor}")?;
                if let Some(s) = shard {
                    write!(f, " (node {s})")?;
                }
                write!(
                    f,
                    " in phase {phase} (completion={completion_us}us \
                     cost={cost_us}us, {} rejected)",
                    rejected.len()
                )
            }
            TraceEvent::SchedulerOverhead {
                phase,
                allocated_us,
                wall_ns,
            } => write!(
                f,
                "phase {phase} scheduling wall time {wall_ns}ns vs allocated Q_s={allocated_us}us"
            ),
            TraceEvent::PhaseProfiled { phase, profile } => {
                write!(f, "phase {phase} profile: total={}ns", profile.total_ns())
            }
            TraceEvent::PhaseStarted {
                phase,
                batch_len,
                quantum,
            } => write!(
                f,
                "phase {phase} start: batch={batch_len} quantum={quantum}"
            ),
            TraceEvent::PhaseEnded {
                phase,
                scheduled,
                consumed,
                vertices,
                backtracks,
                undos,
                replay_avoided,
            } => write!(
                f,
                "phase {phase} end: scheduled={scheduled} consumed={consumed} \
                 vertices={vertices} backtracks={backtracks} undos={undos} \
                 replay_avoided={replay_avoided}"
            ),
            TraceEvent::TaskDispatched {
                task,
                processor,
                slack_us,
            } => write!(
                f,
                "task {task} dispatched to P{processor} slack={slack_us}us"
            ),
            TraceEvent::CommDelay {
                task,
                processor,
                delay_us,
            } => write!(f, "task {task} comm delay {delay_us}us to P{processor}"),
            TraceEvent::TaskStarted { task, processor } => {
                write!(f, "task {task} started on P{processor}")
            }
            TraceEvent::TaskCompleted {
                task,
                processor,
                met_deadline,
                lateness_us,
            } => write!(
                f,
                "task {task} completed on P{processor} ({}, lateness={lateness_us}us)",
                if *met_deadline { "hit" } else { "miss" }
            ),
            TraceEvent::TaskDropped { task } => write!(f, "task {task} dropped (deadline passed)"),
            TraceEvent::TaskExpiredMidPhase { task, phase } => {
                write!(f, "task {task} expired during phase {phase}")
            }
            TraceEvent::ProcessorFailed {
                processor,
                fail_stop,
                orphaned,
                lost,
            } => write!(
                f,
                "P{processor} failed ({}, orphaned={orphaned} lost={lost})",
                if *fail_stop { "fail-stop" } else { "transient" }
            ),
            TraceEvent::ProcessorRecovered { processor } => {
                write!(f, "P{processor} recovered")
            }
            TraceEvent::TaskOrphaned { task, processor } => {
                write!(f, "task {task} orphaned back to host from P{processor}")
            }
            TraceEvent::TaskLost { task, processor } => {
                write!(f, "task {task} lost in flight on P{processor}")
            }
            TraceEvent::Note(s) => write!(f, "note: {s}"),
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
    fn enabled(&self) -> bool {
        true
    }
}

/// The default sink: either disabled (drop everything) or printing to stderr.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tracer {
    print: bool,
}

impl Tracer {
    /// A tracer that drops every event.
    #[inline]
    #[must_use]
    pub fn disabled() -> Self {
        Tracer { print: false }
    }

    /// A tracer that prints each event to stderr (for debugging runs).
    #[must_use]
    pub fn stderr() -> Self {
        Tracer { print: true }
    }
}

impl TraceSink for Tracer {
    #[inline]
    fn emit(&mut self, now: Time, event: TraceEvent) {
        if self.print {
            eprintln!("[{now}] {event}");
        }
    }

    #[inline]
    fn enabled(&self) -> bool {
        self.print
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
                profile: PhaseProfile {
                    screen_ns: 1_000,
                    fill_ns: 12_000,
                    cost_ns: 30_000,
                    shard_ns: 0,
                    apply_ns: 4_000,
                    undo_ns: 2_500,
                    select_ns: 0,
                },
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

    #[test]
    fn display_covers_all_variants() {
        for s in all_variants() {
            assert!(!s.to_string().is_empty());
        }
    }

    /// `all_variants` must produce at least one instance of every variant:
    /// the `kind()` match is compile-time exhaustive, so together these
    /// guarantee a new variant cannot ship without a `Display` arm (the
    /// display test above walks the same samples).
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

    #[test]
    fn phase_profile_totals() {
        let p = PhaseProfile {
            screen_ns: 1,
            fill_ns: 2,
            cost_ns: 3,
            shard_ns: 4,
            apply_ns: 5,
            undo_ns: 6,
            select_ns: 7,
        };
        assert_eq!(p.total_ns(), 28);
        assert_eq!(p.stages().iter().map(|(_, ns)| ns).sum::<u64>(), 28);
        assert_eq!(PhaseProfile::default().total_ns(), 0);
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
    }

    #[test]
    fn into_events_round_trip() {
        let mut rec = RecordingTracer::new();
        rec.emit(Time::ZERO, TraceEvent::Note("a".into()));
        let evs = rec.into_events();
        assert_eq!(evs.len(), 1);
    }
}
