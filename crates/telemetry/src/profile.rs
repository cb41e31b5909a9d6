//! Sampling-free, stage-scoped micro-profiler for the search hot path.
//!
//! The search engine owns one [`StageProfiler`] per scratch and brackets
//! each pipeline [`Stage`] with a [`StageProfiler::start`]/
//! [`StageProfiler::stop`] pair. Disabled (the default) the pair costs two
//! predictable branches and touches no clock, so the instrumented engine
//! stays bit-identical and allocation-free; enabled, each span reads the
//! shared monotonic clock ([`crate::clock::MonotonicInstant`]) and
//! accumulates nanoseconds into a [`PhaseProfile`]. Timers sit at stage
//! granularity — around a whole column sync or a whole cost fold — never
//! inside the per-candidate inner loops, so the enabled profiler perturbs
//! the thing it measures as little as possible.
//!
//! [`StageProfiler::take`] drains one phase's profile, which the driver
//! emits as [`TraceEvent::PhaseProfiled`](paragon_des::trace::TraceEvent)
//! for the collector, the Perfetto exporter and the `rtsads_sim profile`
//! subcommand to consume. The stage table lives in `paragon_des::trace`
//! beside the record it indexes, and is re-exported here.

use paragon_des::trace::PhaseProfile;
pub use paragon_des::trace::{Stage, STAGE_COUNT};

use crate::clock::MonotonicInstant;

/// A per-scratch stage-time accumulator. See the module docs for the
/// enable/measure/drain lifecycle.
#[derive(Debug, Default, Clone)]
pub struct StageProfiler {
    enabled: bool,
    profile: PhaseProfile,
}

impl StageProfiler {
    /// Turns measurement on or off. Disabling does not clear accumulated
    /// time; [`take`](StageProfiler::take) or
    /// [`reset`](StageProfiler::reset) do.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether spans currently read the clock.
    #[must_use]
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span: reads the monotonic clock when enabled, otherwise
    /// returns `None` for the matching [`stop`](StageProfiler::stop) to
    /// ignore. The `Option` is the whole off-switch — no clock read, no
    /// arithmetic, one branch on each side.
    #[must_use]
    #[inline]
    pub fn start(&self) -> Option<MonotonicInstant> {
        self.enabled.then(MonotonicInstant::now)
    }

    /// Closes a span opened by [`start`](StageProfiler::start), crediting
    /// the elapsed wall nanoseconds to `stage`.
    #[inline]
    pub fn stop(&mut self, stage: Stage, started: Option<MonotonicInstant>) {
        if let Some(t) = started {
            self.profile[stage] += t.elapsed_ns();
        }
    }

    /// Drains the accumulation as a wire-format [`PhaseProfile`] and
    /// resets the accumulators for the next phase.
    pub fn take(&mut self) -> PhaseProfile {
        std::mem::take(&mut self.profile)
    }

    /// Clears the accumulators without building a record.
    pub fn reset(&mut self) {
        self.profile = PhaseProfile::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_accumulates_nothing() {
        let mut p = StageProfiler::default();
        assert!(!p.enabled());
        let span = p.start();
        assert!(span.is_none(), "disabled start must not read the clock");
        p.stop(Stage::Fill, span);
        assert_eq!(p.take().total_ns(), 0);
    }

    #[test]
    fn enabled_spans_credit_their_stage_and_take_resets() {
        let mut p = StageProfiler::default();
        p.set_enabled(true);
        let span = p.start();
        assert!(span.is_some());
        // Burn a little work so the span is strictly positive on any clock.
        let mut x = 0u64;
        for i in 0..50_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        std::hint::black_box(x);
        p.stop(Stage::Fill, span);
        let rec = p.take();
        assert!(rec[Stage::Fill] > 0);
        assert_eq!(rec.total_ns(), rec[Stage::Fill]);
        assert_eq!(p.take().total_ns(), 0, "take() resets the accumulators");
    }
}
