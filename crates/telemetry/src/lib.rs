//! Observability for the RT-SADS reproduction.
//!
//! Four pieces, all driven by the [`TraceSink`] seam the simulator already
//! has, so enabling any of them cannot change simulation results:
//!
//! * [`metrics`] — a dependency-light registry of named counters, gauges and
//!   log-linear quantile histograms ([`MetricsRegistry`]).
//! * [`jsonl`] — a [`JsonlTracer`] that streams every [`TraceEvent`] as one
//!   JSON object per line.
//! * [`perfetto`] — a [`PerfettoTracer`] that buffers events and exports a
//!   Chrome trace-event (`chrome://tracing` / Perfetto) timeline: one track
//!   per processor plus a scheduler track of phase spans annotated with
//!   `Q_s(j)`.
//! * [`manifest`] — a [`RunManifest`] recording seed, calibration constants
//!   and the source revision next to every result file.
//! * [`ledger`] — a [`DecisionLedger`] folding the stream into per-task
//!   dossiers with a final miss [`Attribution`], so every hit and miss has
//!   a causal chain on record.
//! * [`profile`] — a [`StageProfiler`] the search engine embeds in its
//!   scratch: zero-cost-when-disabled stage timers on the shared monotonic
//!   clock ([`clock`]), drained per phase into `PhaseProfiled` events. The
//!   stage table, [`Stage`], lives in `paragon_des::trace` beside the
//!   record it indexes and is re-exported here.
//! * [`timeseries`] — a [`TimeSeriesRecorder`] folding the stream into
//!   fixed virtual-time windows (rates, per-processor utilization and queue
//!   depth, lateness/slack sketches, scheduler overhead), exportable as
//!   CSV/JSONL, Perfetto counter tracks or an ASCII sparkline timeline.
//!
//! [`MetricsCollector`] turns the event stream into metrics, and
//! [`MultiSink`] fans one stream out to several sinks, so a run can produce
//! a JSONL trace, a Perfetto timeline and a metrics summary in one pass.

pub mod clock;
pub mod collector;
pub mod jsonl;
pub mod ledger;
pub mod manifest;
pub mod metrics;
pub mod perfetto;
pub mod profile;
pub mod session;
pub mod sink;
pub mod timeseries;

pub use clock::MonotonicInstant;
pub use collector::MetricsCollector;
pub use jsonl::{JsonlTracer, TraceHeader, TraceLine, SCHEMA_VERSION};
pub use ledger::{Attribution, AttributionCounts, DecisionLedger, TaskDossier};
pub use manifest::RunManifest;
pub use metrics::{Histogram, HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use perfetto::PerfettoTracer;
pub use profile::{Stage, StageProfiler};
pub use session::TelemetrySession;
pub use sink::MultiSink;
pub use timeseries::{TimeSeries, TimeSeriesRecorder, WindowStats, DEFAULT_WINDOW_US};

// Re-exported so downstream callers don't need a direct paragon-des path
// just to name the seam they are plugging into.
pub use paragon_des::trace::{TraceEvent, TraceSink};
