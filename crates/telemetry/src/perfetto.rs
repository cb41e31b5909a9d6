//! Chrome trace-event (Perfetto / `chrome://tracing`) timeline export.
//!
//! [`PerfettoTracer`] buffers the run's events and renders a JSON object
//! with a `traceEvents` array:
//!
//! * tid 0 — the **scheduler** (host) track: one complete (`"ph": "X"`)
//!   span per scheduling phase `j`, from `t_s` to `t_e`, with `Q_s(j)`,
//!   the batch size and the search counters in `args`; drops and mid-phase
//!   expiries appear as instant events.
//! * tid `k + 1` — one track per processor `P_k`: one span per task
//!   execution (start to completion), with slack, lateness and the
//!   communication delay in `args`; under fault injection each outage is a
//!   `"down"` span from `ProcessorFailed` to `ProcessorRecovered` (or to
//!   the end of the trace for a fail-stop), and orphaned/lost tasks appear
//!   as instant events on the processor that held them.
//! * when the run was profiled (`PhaseProfiled` events), the scheduler
//!   track additionally nests per-stage sub-spans inside each phase span
//!   (one per `paragon_des::trace::Stage`, scaled by wall-ns share).
//!
//! When a windowed [`TimeSeries`] is attached via
//! [`PerfettoTracer::set_counters`], the export additionally carries
//! *counter tracks* (`"ph": "C"`): one continuous utilization gauge per
//! processor, a stacked per-processor queue-depth track, a deadline-outcome
//! track (hits/misses per window) and a scheduler-load track — so
//! saturation and backlog growth are visible at a glance next to the span
//! tracks.
//!
//! All timestamps are microseconds, which is exactly the simulator's
//! resolution, so the timeline is tick-accurate.

use std::io::Write;

use paragon_des::trace::{PhaseProfile, TraceEvent, TraceSink};
use paragon_des::Time;

use crate::timeseries::TimeSeries;

/// Process id used for every track (one simulated machine = one process).
const PID: u64 = 1;

/// A buffering [`TraceSink`] that renders a Chrome trace-event JSON file.
#[derive(Debug, Default)]
pub struct PerfettoTracer {
    events: Vec<(Time, TraceEvent)>,
    counters: Option<TimeSeries>,
}

/// A task execution being assembled from its dispatch/start/completion
/// events.
#[derive(Debug, Clone, Copy, Default)]
struct OpenTask {
    start_us: u64,
    slack_us: Option<i64>,
    comm_delay_us: Option<u64>,
}

impl PerfettoTracer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Attaches a windowed time series; the next
    /// [`PerfettoTracer::write_chrome_trace`] renders it as counter tracks
    /// (per-processor utilization, queue depth, deadline outcomes,
    /// scheduler load) next to the span tracks.
    pub fn set_counters(&mut self, series: TimeSeries) {
        self.counters = Some(series);
    }

    /// Renders the attached time series as `"ph": "C"` counter rows, one
    /// sample per window (plus a closing sample so the last stairstep has
    /// width).
    fn counter_rows(&self, rows: &mut Vec<String>) {
        let Some(series) = &self.counters else {
            return;
        };
        let mut sample = |ts: u64, w: &crate::timeseries::WindowStats| {
            for k in 0..series.procs {
                rows.push(format!(
                    "{{\"name\":\"utilization P{k}\",\"ph\":\"C\",\"pid\":{PID},\"tid\":0,\
                     \"ts\":{ts},\"args\":{{\"busy_frac\":{:.4}}}}}",
                    w.utilization(k)
                ));
            }
            let depth: String = (0..series.procs)
                .map(|k| {
                    format!(
                        "{}\"P{k}\":{}",
                        if k == 0 { "" } else { "," },
                        w.depth_end.get(k).copied().unwrap_or(0).max(0)
                    )
                })
                .collect();
            rows.push(format!(
                "{{\"name\":\"queue depth\",\"ph\":\"C\",\"pid\":{PID},\"tid\":0,\
                 \"ts\":{ts},\"args\":{{{depth}}}}}"
            ));
            rows.push(format!(
                "{{\"name\":\"deadline outcomes\",\"ph\":\"C\",\"pid\":{PID},\"tid\":0,\
                 \"ts\":{ts},\"args\":{{\"hits\":{},\"misses\":{},\"dropped\":{},\"lost\":{}}}}}",
                w.hits, w.misses, w.dropped, w.lost
            ));
            rows.push(format!(
                "{{\"name\":\"scheduler load\",\"ph\":\"C\",\"pid\":{PID},\"tid\":0,\
                 \"ts\":{ts},\"args\":{{\"consumed_us\":{}}}}}",
                w.sched_consumed_us
            ));
        };
        for w in &series.windows {
            sample(w.start_us, w);
        }
        if let Some(last) = series.windows.last() {
            sample(last.end_us, last);
        }
    }

    /// Renders the buffered events as Chrome trace-event JSON.
    ///
    /// `workers` fixes how many processor tracks to name; processors only
    /// seen in events beyond that count still get spans (Perfetto shows
    /// them with numeric tids).
    pub fn write_chrome_trace<W: Write>(&self, mut out: W, workers: usize) -> std::io::Result<()> {
        let mut rows: Vec<String> = Vec::new();

        // Track naming metadata.
        rows.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID},\"args\":{{\"name\":\"rtsads simulation\"}}}}"
        ));
        rows.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\"args\":{{\"name\":\"scheduler (host)\"}}}}"
        ));
        for k in 0..workers {
            rows.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{},\"args\":{{\"name\":\"P{k}\"}}}}",
                k + 1
            ));
        }

        // Pair phase starts with ends and task starts with completions.
        let mut open_phase: Option<(u64, u64, usize, u64)> = None; // (phase, ts, batch, quantum)
        let mut pending_wall: Option<(u64, u64)> = None; // (phase, wall_ns)
        let mut pending_profile: Option<(u64, PhaseProfile)> = None;
        let mut open_tasks: Vec<(u64, usize, OpenTask)> = Vec::new(); // (task, processor, data)
        let mut pending: Vec<(u64, usize, OpenTask)> = Vec::new(); // dispatched, not started
        let mut open_downs: Vec<(usize, u64, bool, usize, usize)> = Vec::new(); // (processor, ts, fail_stop, orphaned, lost)
                                                                                // Fault events can be emitted retroactively (with timestamps before
                                                                                // their neighbors), so the trace end is the max, not the last, ts.
        let end_ts = self
            .events
            .iter()
            .map(|(t, _)| t.as_micros())
            .max()
            .unwrap_or(0);

        for (t, event) in &self.events {
            let ts = t.as_micros();
            match event {
                TraceEvent::PhaseStarted {
                    phase,
                    batch_len,
                    quantum,
                } => {
                    open_phase = Some((*phase, ts, *batch_len, quantum.as_micros()));
                }
                TraceEvent::PhaseEnded {
                    phase,
                    scheduled,
                    consumed,
                    vertices,
                    backtracks,
                    undos,
                    replay_avoided,
                } => {
                    let (start_ts, batch, quantum) = match open_phase.take() {
                        Some((p, s, b, q)) if p == *phase => (s, b, q),
                        _ => (ts.saturating_sub(consumed.as_micros()), 0, 0),
                    };
                    // Measured wall time (if the run recorded it) sits next
                    // to the allocated quantum in the span's args.
                    let wall = match pending_wall.take() {
                        Some((p, w)) if p == *phase => format!(",\"sched_wall_ns\":{w}"),
                        other => {
                            pending_wall = other;
                            String::new()
                        }
                    };
                    rows.push(format!(
                        "{{\"name\":\"phase {phase}\",\"ph\":\"X\",\"pid\":{PID},\"tid\":0,\
                         \"ts\":{start_ts},\"dur\":{},\"args\":{{\"quantum_us\":{quantum},\
                         \"batch_len\":{batch},\"scheduled\":{scheduled},\
                         \"consumed_us\":{},\"vertices\":{vertices},\"backtracks\":{backtracks},\
                         \"undos\":{undos},\"replay_avoided\":{replay_avoided}{wall}}}}}",
                        ts - start_ts,
                        consumed.as_micros(),
                    ));
                    // Stage attribution (if the run profiled it): nested
                    // stage spans inside the phase span.
                    match pending_profile.take() {
                        Some((p, prof)) if p == *phase => {
                            profile_rows(&mut rows, start_ts, ts - start_ts, &prof);
                        }
                        other => pending_profile = other,
                    }
                }
                TraceEvent::TaskDispatched {
                    task,
                    processor,
                    slack_us,
                } => {
                    pending.push((
                        *task,
                        *processor,
                        OpenTask {
                            start_us: ts,
                            slack_us: Some(*slack_us),
                            comm_delay_us: None,
                        },
                    ));
                }
                TraceEvent::CommDelay {
                    task,
                    processor,
                    delay_us,
                } => {
                    if let Some((.., open)) = pending
                        .iter_mut()
                        .find(|(t2, p2, _)| t2 == task && p2 == processor)
                    {
                        open.comm_delay_us = Some(*delay_us);
                    }
                }
                TraceEvent::TaskStarted { task, processor } => {
                    let mut open = pending
                        .iter()
                        .position(|(t2, p2, _)| t2 == task && p2 == processor)
                        .map(|i| pending.remove(i).2)
                        .unwrap_or_default();
                    open.start_us = ts;
                    open_tasks.push((*task, *processor, open));
                }
                TraceEvent::TaskCompleted {
                    task,
                    processor,
                    met_deadline,
                    lateness_us,
                } => {
                    let open = open_tasks
                        .iter()
                        .position(|(t2, p2, _)| t2 == task && p2 == processor)
                        .map(|i| open_tasks.remove(i).2)
                        .unwrap_or_else(|| OpenTask {
                            start_us: ts,
                            ..OpenTask::default()
                        });
                    let mut args =
                        format!("\"met_deadline\":{met_deadline},\"lateness_us\":{lateness_us}");
                    if let Some(s) = open.slack_us {
                        args.push_str(&format!(",\"slack_at_dispatch_us\":{s}"));
                    }
                    if let Some(c) = open.comm_delay_us {
                        args.push_str(&format!(",\"comm_delay_us\":{c}"));
                    }
                    rows.push(format!(
                        "{{\"name\":\"task {task}\",\"ph\":\"X\",\"pid\":{PID},\"tid\":{},\
                         \"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                        processor + 1,
                        open.start_us,
                        ts.saturating_sub(open.start_us),
                    ));
                }
                TraceEvent::SchedulerOverhead { phase, wall_ns, .. } => {
                    pending_wall = Some((*phase, *wall_ns));
                }
                TraceEvent::PhaseProfiled { phase, profile } => {
                    pending_profile = Some((*phase, profile.clone()));
                }
                TraceEvent::TaskScreened { task, phase, .. } => {
                    rows.push(format!(
                        "{{\"name\":\"task {task} screened out (phase {phase})\",\"ph\":\"i\",\
                         \"s\":\"t\",\"pid\":{PID},\"tid\":0,\"ts\":{ts}}}"
                    ));
                }
                // Admission parameters and placement evidence carry no
                // timeline geometry of their own; the ledger consumes them.
                TraceEvent::TaskAdmitted { .. } | TraceEvent::PlacementDecided { .. } => {}
                TraceEvent::TaskDropped { task } => {
                    rows.push(format!(
                        "{{\"name\":\"drop task {task}\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":{PID},\"tid\":0,\"ts\":{ts}}}"
                    ));
                }
                TraceEvent::TaskExpiredMidPhase { task, phase } => {
                    rows.push(format!(
                        "{{\"name\":\"task {task} expired (phase {phase})\",\"ph\":\"i\",\
                         \"s\":\"t\",\"pid\":{PID},\"tid\":0,\"ts\":{ts}}}"
                    ));
                }
                TraceEvent::ProcessorFailed {
                    processor,
                    fail_stop,
                    orphaned,
                    lost,
                } => {
                    open_downs.push((*processor, ts, *fail_stop, *orphaned, *lost));
                }
                TraceEvent::ProcessorRecovered { processor } => {
                    if let Some(i) = open_downs.iter().position(|(p, ..)| p == processor) {
                        let (p, from, fail_stop, orphaned, lost) = open_downs.remove(i);
                        rows.push(format!(
                            "{{\"name\":\"down\",\"ph\":\"X\",\"pid\":{PID},\"tid\":{},\
                             \"ts\":{from},\"dur\":{},\"args\":{{\"fail_stop\":{fail_stop},\
                             \"orphaned\":{orphaned},\"lost\":{lost}}}}}",
                            p + 1,
                            ts.saturating_sub(from),
                        ));
                    }
                }
                TraceEvent::TaskOrphaned { task, processor } => {
                    rows.push(format!(
                        "{{\"name\":\"task {task} orphaned\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":{PID},\"tid\":{},\"ts\":{ts}}}",
                        processor + 1
                    ));
                }
                TraceEvent::TaskLost { task, processor } => {
                    rows.push(format!(
                        "{{\"name\":\"task {task} lost\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":{PID},\"tid\":{},\"ts\":{ts}}}",
                        processor + 1
                    ));
                }
                TraceEvent::Note(note) => {
                    // Reuse the serializer for correct string escaping.
                    let name =
                        serde_json::to_string(&format!("note: {note}")).expect("strings serialize");
                    rows.push(format!(
                        "{{\"name\":{name},\"ph\":\"i\",\"s\":\"g\",\"pid\":{PID},\
                         \"tid\":0,\"ts\":{ts}}}"
                    ));
                }
            }
        }

        // A failure with no recovery (fail-stop, or the run ended first)
        // stays down through the end of the trace.
        for (p, from, fail_stop, orphaned, lost) in open_downs {
            rows.push(format!(
                "{{\"name\":\"down\",\"ph\":\"X\",\"pid\":{PID},\"tid\":{},\
                 \"ts\":{from},\"dur\":{},\"args\":{{\"fail_stop\":{fail_stop},\
                 \"orphaned\":{orphaned},\"lost\":{lost}}}}}",
                p + 1,
                end_ts.saturating_sub(from),
            ));
        }

        self.counter_rows(&mut rows);

        writeln!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (i, row) in rows.iter().enumerate() {
            let sep = if i + 1 < rows.len() { "," } else { "" };
            writeln!(out, "{row}{sep}")?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

impl TraceSink for PerfettoTracer {
    fn emit(&mut self, now: Time, event: TraceEvent) {
        self.events.push((now, event));
    }
}

/// Renders one phase's stage profile as stage sub-spans nested inside the
/// phase span on the scheduler track. Durations scale the virtual-time span
/// by each stage's share of attributed wall time, so the visual split *is*
/// the stage-fraction table.
fn profile_rows(rows: &mut Vec<String>, start_ts: u64, dur: u64, prof: &PhaseProfile) {
    let total = prof.total_ns();
    if total == 0 {
        return;
    }
    let mut acc_ns = 0u64;
    let mut cursor = 0u64;
    for (name, ns) in prof.stages() {
        if ns == 0 {
            continue;
        }
        acc_ns += ns;
        // End offsets come from the running sum so rounding never lets the
        // stage spans overflow the enclosing phase span.
        let end = ((dur as f64) * (acc_ns as f64) / (total as f64)).round() as u64;
        rows.push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":{PID},\"tid\":0,\
             \"ts\":{},\"dur\":{},\"args\":{{\"wall_ns\":{ns},\"frac\":{:.4}}}}}",
            start_ts + cursor,
            end.saturating_sub(cursor),
            ns as f64 / total as f64,
        ));
        cursor = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_des::Duration;

    fn sample_run() -> PerfettoTracer {
        let mut p = PerfettoTracer::new();
        p.emit(
            Time::from_micros(0),
            TraceEvent::PhaseStarted {
                phase: 0,
                batch_len: 2,
                quantum: Duration::from_micros(30),
            },
        );
        p.emit(
            Time::from_micros(30),
            TraceEvent::PhaseEnded {
                phase: 0,
                scheduled: 1,
                consumed: Duration::from_micros(30),
                vertices: 7,
                backtracks: 1,
                undos: 2,
                replay_avoided: 5,
            },
        );
        p.emit(
            Time::from_micros(30),
            TraceEvent::TaskDispatched {
                task: 4,
                processor: 1,
                slack_us: 70,
            },
        );
        p.emit(
            Time::from_micros(30),
            TraceEvent::CommDelay {
                task: 4,
                processor: 1,
                delay_us: 10,
            },
        );
        p.emit(
            Time::from_micros(30),
            TraceEvent::TaskStarted {
                task: 4,
                processor: 1,
            },
        );
        p.emit(
            Time::from_micros(90),
            TraceEvent::TaskCompleted {
                task: 4,
                processor: 1,
                met_deadline: true,
                lateness_us: -10,
            },
        );
        p.emit(Time::from_micros(95), TraceEvent::TaskDropped { task: 5 });
        p
    }

    #[test]
    fn renders_valid_json_with_both_track_kinds() {
        let p = sample_run();
        assert_eq!(p.len(), 7);
        let mut buf = Vec::new();
        p.write_chrome_trace(&mut buf, 2).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let value = serde_json::from_str::<serde::Value>(&text).expect("whole file is JSON");
        let events = value
            .get("traceEvents")
            .and_then(serde::Value::as_array)
            .expect("traceEvents array");
        // 1 process_name + 3 thread_name + 1 phase span + 1 task span + 1 drop
        assert_eq!(events.len(), 7);
        assert!(text.contains("\"scheduler (host)\""));
        assert!(text.contains("\"P1\""));
        assert!(text.contains("\"quantum_us\":30"));
        assert!(text.contains("\"slack_at_dispatch_us\":70"));
        assert!(text.contains("\"comm_delay_us\":10"));
        // The task span sits on P1's track (tid 2) and lasts 60us.
        assert!(text.contains("\"tid\":2,\"ts\":30,\"dur\":60"));
    }

    #[test]
    fn unpaired_completion_still_renders() {
        let mut p = PerfettoTracer::new();
        p.emit(
            Time::from_micros(10),
            TraceEvent::TaskCompleted {
                task: 1,
                processor: 0,
                met_deadline: false,
                lateness_us: 5,
            },
        );
        let mut buf = Vec::new();
        p.write_chrome_trace(&mut buf, 1).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(serde_json::from_str::<serde::Value>(&text).is_ok());
        assert!(text.contains("\"dur\":0"));
    }

    #[test]
    fn fault_events_render_down_spans_and_instants() {
        let mut p = PerfettoTracer::new();
        p.emit(
            Time::from_micros(100),
            TraceEvent::ProcessorFailed {
                processor: 0,
                fail_stop: false,
                orphaned: 2,
                lost: 1,
            },
        );
        p.emit(
            Time::from_micros(100),
            TraceEvent::TaskOrphaned {
                task: 7,
                processor: 0,
            },
        );
        p.emit(
            Time::from_micros(100),
            TraceEvent::TaskLost {
                task: 8,
                processor: 0,
            },
        );
        p.emit(
            Time::from_micros(400),
            TraceEvent::ProcessorRecovered { processor: 0 },
        );
        // A second, never-recovered failure closes at the trace end (500).
        p.emit(
            Time::from_micros(450),
            TraceEvent::ProcessorFailed {
                processor: 1,
                fail_stop: true,
                orphaned: 0,
                lost: 0,
            },
        );
        p.emit(
            Time::from_micros(500),
            TraceEvent::TaskCompleted {
                task: 9,
                processor: 2,
                met_deadline: true,
                lateness_us: -1,
            },
        );
        let mut buf = Vec::new();
        p.write_chrome_trace(&mut buf, 3).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            serde_json::from_str::<serde::Value>(&text).is_ok(),
            "bad JSON: {text}"
        );
        // Recovered outage: P0's track (tid 1), 100..400.
        assert!(text
            .contains("\"name\":\"down\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":100,\"dur\":300"));
        // Fail-stop outage: P1's track (tid 2), closed at the trace end.
        assert!(text.contains("\"tid\":2,\"ts\":450,\"dur\":50"));
        assert!(text.contains("task 7 orphaned"));
        assert!(text.contains("task 8 lost"));
    }

    #[test]
    fn overhead_and_screening_surface_on_the_scheduler_track() {
        let mut p = PerfettoTracer::new();
        p.emit(
            Time::from_micros(0),
            TraceEvent::PhaseStarted {
                phase: 0,
                batch_len: 2,
                quantum: Duration::from_micros(30),
            },
        );
        p.emit(
            Time::from_micros(30),
            TraceEvent::TaskScreened {
                task: 6,
                phase: 0,
                deadline_us: 25,
                probes: Vec::new(),
            },
        );
        p.emit(
            Time::from_micros(30),
            TraceEvent::TaskAdmitted {
                task: 6,
                arrival_us: 0,
                deadline_us: 25,
                processing_us: 10,
            },
        );
        p.emit(
            Time::from_micros(30),
            TraceEvent::PlacementDecided {
                task: 7,
                phase: 0,
                processor: 0,
                completion_us: 60,
                cost_us: 60,
                shard: None,
                rejected: Vec::new(),
            },
        );
        p.emit(
            Time::from_micros(30),
            TraceEvent::SchedulerOverhead {
                phase: 0,
                allocated_us: 30,
                wall_ns: 12_345,
            },
        );
        p.emit(
            Time::from_micros(30),
            TraceEvent::PhaseEnded {
                phase: 0,
                scheduled: 1,
                consumed: Duration::from_micros(30),
                vertices: 3,
                backtracks: 0,
                undos: 0,
                replay_avoided: 0,
            },
        );
        let mut buf = Vec::new();
        p.write_chrome_trace(&mut buf, 1).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            serde_json::from_str::<serde::Value>(&text).is_ok(),
            "bad JSON: {text}"
        );
        // The measured wall time rides in the phase span's args, next to
        // the allocated quantum.
        assert!(text.contains("\"quantum_us\":30"));
        assert!(text.contains("\"sched_wall_ns\":12345"));
        assert!(text.contains("task 6 screened out (phase 0)"));
    }

    #[test]
    fn phase_profile_renders_stage_spans() {
        use paragon_des::trace::PhaseProfile;
        let mut p = PerfettoTracer::new();
        p.emit(
            Time::from_micros(0),
            TraceEvent::PhaseStarted {
                phase: 0,
                batch_len: 2,
                quantum: Duration::from_micros(100),
            },
        );
        p.emit(
            Time::from_micros(100),
            TraceEvent::PhaseProfiled {
                phase: 0,
                profile: PhaseProfile([0, 250, 500, 0, 0, 150, 100]),
            },
        );
        p.emit(
            Time::from_micros(100),
            TraceEvent::PhaseEnded {
                phase: 0,
                scheduled: 2,
                consumed: Duration::from_micros(90),
                vertices: 40,
                backtracks: 1,
                undos: 2,
                replay_avoided: 0,
            },
        );
        let mut buf = Vec::new();
        p.write_chrome_trace(&mut buf, 1).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            serde_json::from_str::<serde::Value>(&text).is_ok(),
            "bad JSON: {text}"
        );
        // Stage sub-spans: cost is half the 1000ns total, so its slice is
        // half the 100us phase span.
        assert!(text.contains("\"name\":\"cost\""), "{text}");
        assert!(text.contains("\"frac\":0.5000"));
        // Zero stages are skipped entirely.
        assert!(!text.contains("\"name\":\"shard\""));
    }

    #[test]
    fn attached_time_series_renders_counter_tracks() {
        use crate::timeseries::TimeSeriesRecorder;
        let mut p = sample_run();
        let mut rec = TimeSeriesRecorder::new(50);
        // Re-feed the sample events so the counters describe the same run.
        for (t, e) in p.events.clone() {
            rec.emit(t, e);
        }
        p.set_counters(rec.finish());
        let mut buf = Vec::new();
        p.write_chrome_trace(&mut buf, 2).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            serde_json::from_str::<serde::Value>(&text).is_ok(),
            "bad JSON: {text}"
        );
        // One utilization counter track per processor, plus the shared
        // gauges.
        assert!(text.contains("\"utilization P0\""));
        assert!(text.contains("\"utilization P1\""));
        assert!(text.contains("\"queue depth\""));
        assert!(text.contains("\"deadline outcomes\""));
        assert!(text.contains("\"scheduler load\""));
        assert!(text.contains("\"ph\":\"C\""));
        // Task 4 ran on P1 over [30, 90): 40us of window [50, 100) is a
        // busy fraction of 0.8.
        assert!(text.contains("\"busy_frac\":0.8000"));
    }

    #[test]
    fn note_strings_are_escaped() {
        let mut p = PerfettoTracer::new();
        p.emit(Time::ZERO, TraceEvent::Note("with \"quotes\"".into()));
        let mut buf = Vec::new();
        p.write_chrome_trace(&mut buf, 1).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            serde_json::from_str::<serde::Value>(&text).is_ok(),
            "bad JSON: {text}"
        );
    }
}
