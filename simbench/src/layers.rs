//! The traced pass: a benchmark-owned sink that times each simulation's
//! layers from outside the program, through the events the driver emits
//! with `measure_overhead(true)` and `profile(true)`.
//!
//! Spans are kept in memory with name, start, end and parent, and written
//! out when the pass ends. Times are nanoseconds since the pass began.

use std::time::Instant;

use rtsads_repro::des::trace::{TraceEvent, TraceSink};
use rtsads_repro::des::Time;
use serde_json::Value;

use crate::workloads::{elapsed_ns, Telemetry, TelemetryOut};

/// The search engine's stages, in `PhaseProfile::stages` order.
pub const STAGES: [&str; 8] = [
    "screen", "fill", "cost", "select", "shard", "apply", "undo", "merge",
];

/// The telemetry sinks, in the order `Telemetry` fans out to them.
pub const SINKS: [&str; 4] = ["collector", "jsonl", "timeseries", "ledger"];

/// One recorded span. `parent` indexes the span list of the same run.
pub struct Span {
    pub run: usize,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn to_json(&self, id: usize) -> Value {
        let mut fields = vec![
            ("run".to_string(), Value::U64(self.run as u64)),
            ("id".to_string(), Value::U64(id as u64)),
            (
                "parent".to_string(),
                self.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
            ),
            ("name".to_string(), Value::Str(self.name.to_string())),
            ("start_ns".to_string(), Value::U64(self.start_ns)),
            ("end_ns".to_string(), Value::U64(self.end_ns)),
        ];
        fields.extend(
            self.attrs
                .iter()
                .map(|&(k, v)| (k.to_string(), Value::U64(v))),
        );
        Value::Object(fields)
    }
}

/// Per-simulation totals of the traced pass.
#[derive(Default)]
pub struct RunTrace {
    pub build_ns: u64,
    pub wall_ns: u64,
    /// Sum of `SchedulerOverhead.wall_ns`: wall time inside `schedule_phase`.
    pub search_ns: u64,
    /// Sum of `PhaseProfiled` stage times, in [`STAGES`] order.
    pub stage_ns: [u64; 8],
    /// Time inside each real telemetry sink (emit and finish), in [`SINKS`]
    /// order, and the events each one received.
    pub sink_ns: [u64; 4],
    pub sink_events: [u64; 4],
    /// Time spent in this benchmark's own recording, outside the real sinks.
    pub recorder_ns: u64,
    pub phases: u64,
    /// Phases whose measured wall time exceeded the allocated `Q_s(j)`.
    pub overruns: u64,
}

impl RunTrace {
    pub fn telemetry_ns(&self) -> u64 {
        self.sink_ns.iter().sum()
    }

    pub fn stages_total_ns(&self) -> u64 {
        self.stage_ns.iter().sum()
    }

    /// Driver time outside search, telemetry and recording: the run's wall
    /// time minus every part attributed to another layer.
    pub fn core_self_ns(&self) -> f64 {
        self.wall_ns as f64
            - self.search_ns as f64
            - self.telemetry_ns() as f64
            - self.recorder_ns as f64
    }

    pub fn add(&mut self, other: &RunTrace) {
        self.build_ns += other.build_ns;
        self.wall_ns += other.wall_ns;
        self.search_ns += other.search_ns;
        self.recorder_ns += other.recorder_ns;
        self.phases += other.phases;
        self.overruns += other.overruns;
        for k in 0..STAGES.len() {
            self.stage_ns[k] += other.stage_ns[k];
        }
        for k in 0..SINKS.len() {
            self.sink_ns[k] += other.sink_ns[k];
            self.sink_events[k] += other.sink_events[k];
        }
    }
}

/// The recording sink of one traced simulation. When `telemetry` is set,
/// every event is also forwarded to the CLI's sinks, each timed on its own.
pub struct LayerTracer<'a> {
    origin: Instant,
    run: usize,
    keep_spans: bool,
    spans: Vec<Span>,
    totals: RunTrace,
    phase_walls_ns: &'a mut Vec<u64>,
    telemetry: Option<Telemetry>,
    open_phase: Option<usize>,
    phase_start_ns: u64,
    /// Set at `PhaseStarted`; the next event marks the end of the search.
    awaiting_search_end: bool,
    search_end_ns: u64,
    last_search: Option<usize>,
}

/// Index of the root `run` span in every run's span list.
const RUN_SPAN: usize = 0;

impl<'a> LayerTracer<'a> {
    pub fn new(
        origin: Instant,
        run: usize,
        keep_spans: bool,
        phase_walls_ns: &'a mut Vec<u64>,
        telemetry: Option<Telemetry>,
    ) -> Self {
        LayerTracer {
            origin,
            run,
            keep_spans,
            spans: Vec::new(),
            totals: RunTrace::default(),
            phase_walls_ns,
            telemetry,
            open_phase: None,
            phase_start_ns: 0,
            awaiting_search_end: false,
            search_end_ns: 0,
            last_search: None,
        }
    }

    fn clock(&self) -> u64 {
        elapsed_ns(self.origin)
    }

    fn push(&mut self, name: &'static str, parent: Option<usize>, start_ns: u64) -> Option<usize> {
        if !self.keep_spans {
            return None;
        }
        self.spans.push(Span {
            run: self.run,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            attrs: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    /// Opens the root span; call right before `run_traced`.
    pub fn begin(&mut self, build_start_ns: u64, build_end_ns: u64, run_start_ns: u64) {
        self.totals.build_ns = build_end_ns - build_start_ns;
        self.push("run", None, run_start_ns);
        // The build precedes the run, so it is a root span of its own.
        if let Some(build) = self.push("workload.build", None, build_start_ns) {
            self.spans[build].end_ns = build_end_ns;
        }
    }

    /// Closes the run: flushes the real sinks (timed as telemetry), records
    /// the run's wall time, and returns the totals, the spans and the
    /// sinks' output.
    pub fn finish(mut self, run_start_ns: u64) -> (RunTrace, Vec<Span>, Option<TelemetryOut>) {
        let out = self.telemetry.take().map(Telemetry::finish);
        if let Some(out) = &out {
            self.totals.sink_ns[1] += out.jsonl_flush_ns;
            self.totals.sink_ns[2] += out.timeseries_flush_ns;
        }
        let end = self.clock();
        self.totals.wall_ns = end - run_start_ns;
        if let Some(run) = self.spans.get_mut(RUN_SPAN) {
            run.end_ns = end;
            run.attrs = vec![
                ("search_ns", self.totals.search_ns),
                ("telemetry_ns", self.totals.telemetry_ns()),
                ("recorder_ns", self.totals.recorder_ns),
            ];
        }
        (self.totals, self.spans, out)
    }

    fn observe(&mut self, at: u64, event: &TraceEvent) {
        if let TraceEvent::PhaseStarted { .. } = event {
            self.phase_start_ns = at;
            self.open_phase = self.push("phase", Some(RUN_SPAN), at);
            self.awaiting_search_end = true;
            return;
        }
        if self.awaiting_search_end {
            // The first event after `PhaseStarted` is emitted right after
            // `schedule_phase` returns.
            self.awaiting_search_end = false;
            self.search_end_ns = at;
        }
        match event {
            TraceEvent::SchedulerOverhead {
                allocated_us,
                wall_ns,
                ..
            } => {
                self.totals.search_ns += wall_ns;
                self.totals.phases += 1;
                if *wall_ns > allocated_us.saturating_mul(1_000) {
                    self.totals.overruns += 1;
                }
                self.phase_walls_ns.push(*wall_ns);
                let start = self
                    .search_end_ns
                    .saturating_sub(*wall_ns)
                    .max(self.phase_start_ns);
                self.last_search = self.push("search", self.open_phase, start);
                if let Some(search) = self.last_search {
                    self.spans[search].end_ns = self.search_end_ns;
                }
            }
            TraceEvent::PhaseProfiled { profile, .. } => {
                for (k, (_, ns)) in profile.stages().iter().enumerate() {
                    self.totals.stage_ns[k] += ns;
                }
                if let Some(search) = self.last_search {
                    self.spans[search].attrs = profile.stages().to_vec();
                }
            }
            TraceEvent::PhaseEnded { .. } => {
                if let Some(phase) = self.open_phase.take() {
                    self.spans[phase].end_ns = at;
                }
                self.last_search = None;
            }
            _ => {}
        }
    }
}

impl TraceSink for LayerTracer<'_> {
    fn emit(&mut self, now: Time, event: TraceEvent) {
        let entered = self.clock();
        self.observe(entered, &event);
        let mut in_sinks = 0;
        if let Some(t) = self.telemetry.as_mut() {
            // Like the CLI's fan-out, every sink but the last gets a clone;
            // each sink is charged for making its own copy.
            let sinks: [&mut dyn TraceSink; 4] = [
                &mut t.collector,
                &mut t.jsonl,
                &mut t.timeseries,
                &mut t.ledger,
            ];
            let mut event = Some(event);
            for (k, sink) in sinks.into_iter().enumerate() {
                let started = Instant::now();
                let copy = if k + 1 < SINKS.len() {
                    event.clone()
                } else {
                    event.take()
                };
                sink.emit(
                    now,
                    copy.expect("the event is moved only into the last sink"),
                );
                let ns = elapsed_ns(started);
                self.totals.sink_ns[k] += ns;
                self.totals.sink_events[k] += 1;
                in_sinks += ns;
            }
        }
        self.totals.recorder_ns += (self.clock() - entered).saturating_sub(in_sinks);
    }
}
