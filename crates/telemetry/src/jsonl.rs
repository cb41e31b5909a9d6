//! Structured JSONL trace export: one JSON object per line, one line per
//! [`TraceEvent`].
//!
//! The first line is a [`TraceHeader`] manifest naming the schema version;
//! every following line is a [`TraceLine`]: `{"t_us": <u64>, "event":
//! {...}}`, where `event` uses serde's externally-tagged enum encoding
//! (e.g. `{"TaskStarted": {"task": 3, "processor": 1}}`). Every line parses
//! back into the same event, so traces double as machine-readable logs.
//! [`parse_trace`] accepts headerless traces from before the header existed
//! and version-1 traces, and rejects traces from a newer schema with a
//! clear error.

use std::io::Write;

use paragon_des::trace::{TraceEvent, TraceSink};
use paragon_des::Time;
use serde::{Deserialize, Serialize};

/// The trace schema version this crate writes. Bump it whenever a
/// [`TraceEvent`] change breaks old readers (renaming or removing a variant
/// or field; additions are compatible). Version 2 dropped the merge stage
/// and the subtree-walk list from `PhaseProfiled`.
pub const SCHEMA_VERSION: u32 = 2;

/// The oldest schema [`parse_trace`] still reads. Version 1 differs from
/// version 2 only by two `PhaseProfiled` keys, which the reader ignores.
const OLDEST_READABLE_VERSION: u32 = 1;

/// The header manifest on the first line of a JSONL trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// The schema the rest of the file follows; see [`SCHEMA_VERSION`].
    pub schema_version: u32,
}

/// One line of a JSONL trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceLine {
    /// Simulation timestamp of the event, in microseconds.
    pub t_us: u64,
    /// The event itself.
    pub event: TraceEvent,
}

/// A [`TraceSink`] streaming events to a writer as JSONL.
///
/// Each line is serialized into one reused buffer and handed to the writer
/// with a single `write_all`, so a warm tracer allocates nothing per event
/// beyond what the writer itself does.
///
/// Write errors are sticky: the first one is kept and all further events
/// are dropped; [`JsonlTracer::finish`] surfaces it. This keeps `emit`
/// infallible, as the `TraceSink` seam requires.
#[derive(Debug)]
pub struct JsonlTracer<W: Write> {
    out: W,
    line: String,
    lines: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlTracer<W> {
    /// Wraps a writer and eagerly writes the [`TraceHeader`] line.
    /// Buffering is the caller's choice (pass a `BufWriter` for files). A
    /// failed header write is sticky like any other write error.
    pub fn new(out: W) -> Self {
        let mut tracer = JsonlTracer {
            out,
            line: String::new(),
            lines: 0,
            error: None,
        };
        tracer.write_line(&TraceHeader {
            schema_version: SCHEMA_VERSION,
        });
        tracer
    }

    /// Serializes `value` plus a newline into the line buffer and writes
    /// it out, keeping the first error.
    fn write_line(&mut self, value: &impl Serialize) {
        self.line.clear();
        value.write_json(&mut self.line);
        self.line.push('\n');
        if let Err(e) = self.out.write_all(self.line.as_bytes()) {
            self.error = Some(e);
        }
    }

    /// Number of event lines successfully written (the header manifest is
    /// not counted).
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the writer, or the first write error.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> TraceSink for JsonlTracer<W> {
    fn emit(&mut self, now: Time, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        self.write_line(&TraceLine {
            t_us: now.as_micros(),
            event,
        });
        if self.error.is_none() {
            self.lines += 1;
        }
    }
}

/// Parses a JSONL trace back into `(time, event)` pairs. Blank lines are
/// skipped; any malformed line is an error naming its line number.
///
/// A leading [`TraceHeader`] line is consumed and version-checked: a trace
/// written by a newer schema is rejected with a clear error rather than a
/// confusing per-line parse failure. Traces without a header (written
/// before it existed) and version-1 traces still parse.
pub fn parse_trace(input: &str) -> Result<Vec<(Time, TraceEvent)>, String> {
    let mut events = Vec::new();
    let mut first = true;
    for (idx, raw) in input.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        if std::mem::take(&mut first) {
            if let Ok(value) = serde_json::from_str::<serde::Value>(raw) {
                if let Some(version) = value.get("schema_version").and_then(|v| v.as_u64()) {
                    let readable = u64::from(OLDEST_READABLE_VERSION)..=u64::from(SCHEMA_VERSION);
                    if !readable.contains(&version) {
                        return Err(format!(
                            "unknown trace schema version {version}: this reader supports \
                             versions {OLDEST_READABLE_VERSION} to {SCHEMA_VERSION}"
                        ));
                    }
                    continue; // header consumed
                }
            }
        }
        let line: TraceLine =
            serde_json::from_str(raw).map_err(|e| format!("line {}: {e:?}", idx + 1))?;
        events.push((Time::from_micros(line.t_us), line.event));
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_des::Duration;

    #[test]
    fn events_stream_one_line_each_and_parse_back() {
        let mut sink = JsonlTracer::new(Vec::new());
        sink.emit(
            Time::from_micros(5),
            TraceEvent::PhaseStarted {
                phase: 0,
                batch_len: 3,
                quantum: Duration::from_micros(40),
            },
        );
        sink.emit(
            Time::from_micros(45),
            TraceEvent::TaskDispatched {
                task: 7,
                processor: 1,
                slack_us: -3,
            },
        );
        assert_eq!(sink.lines(), 2, "the header manifest is not counted");
        let buf = sink.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3, "header + two events");
        let header: TraceHeader = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(header.schema_version, SCHEMA_VERSION);
        for line in text.lines().skip(1) {
            assert!(
                serde_json::from_str::<TraceLine>(line).is_ok(),
                "bad line: {line}"
            );
        }
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, Time::from_micros(5));
        assert!(matches!(
            parsed[1].1,
            TraceEvent::TaskDispatched { task: 7, .. }
        ));
    }

    #[test]
    fn header_round_trips_through_serde() {
        let header = TraceHeader {
            schema_version: SCHEMA_VERSION,
        };
        let json = serde_json::to_string(&header).unwrap();
        let back: TraceHeader = serde_json::from_str(&json).unwrap();
        assert_eq!(back, header);
    }

    #[test]
    fn headerless_legacy_traces_still_parse() {
        let text = "{\"t_us\": 3, \"event\": {\"TaskDropped\": {\"task\": 9}}}\n";
        let parsed = parse_trace(text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, Time::from_micros(3));
        assert!(matches!(parsed[0].1, TraceEvent::TaskDropped { task: 9 }));
    }

    #[test]
    fn unknown_schema_version_is_rejected_gracefully() {
        let text = "{\"schema_version\": 999}\n{\"t_us\": 0, \"event\": {\"TaskDropped\": {\"task\": 1}}}\n";
        let err = parse_trace(text).unwrap_err();
        assert!(
            err.contains("unknown trace schema version 999"),
            "got: {err}"
        );
        assert!(err.contains("supports versions 1 to 2"), "got: {err}");
    }

    #[test]
    fn version_1_traces_parse_and_version_3_is_rejected() {
        let body = "{\"t_us\": 4, \"event\": {\"TaskDropped\": {\"task\": 2}}}\n";
        let v1 = format!("{{\"schema_version\":1}}\n{body}");
        let parsed = parse_trace(&v1).unwrap();
        assert_eq!(parsed.len(), 1);
        assert!(matches!(parsed[0].1, TraceEvent::TaskDropped { task: 2 }));
        let v3 = format!("{{\"schema_version\":3}}\n{body}");
        let err = parse_trace(&v3).unwrap_err();
        assert!(err.contains("unknown trace schema version 3"), "got: {err}");
    }

    #[test]
    fn malformed_lines_are_reported_with_their_number() {
        let text = "{\"t_us\": 1, \"event\": \"nonsense\"}\n";
        let err = parse_trace(text).unwrap_err();
        assert!(err.starts_with("line 1"), "got: {err}");
    }

    #[test]
    fn write_errors_are_sticky_and_surfaced() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlTracer::new(Failing);
        sink.emit(Time::ZERO, TraceEvent::Note("x".into()));
        sink.emit(Time::ZERO, TraceEvent::Note("y".into()));
        assert_eq!(sink.lines(), 0);
        assert!(sink.finish().is_err());
    }
}
