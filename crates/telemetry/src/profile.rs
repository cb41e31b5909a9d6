//! Sampling-free, stage-scoped micro-profiler for the search hot path.
//!
//! The search engine owns one [`StageProfiler`] per scratch and brackets
//! each pipeline stage — feasibility screen, SoA completion fill, cost
//! fold, child selection, shard ranking, apply/undo branch walks — with a
//! [`StageProfiler::start`]/[`StageProfiler::stop`] pair. Disabled (the
//! default) the pair costs two predictable branches and touches no clock,
//! so the instrumented engine stays bit-identical and allocation-free;
//! enabled, each span reads the shared monotonic clock
//! ([`crate::clock::MonotonicInstant`]) and accumulates nanoseconds into a
//! fixed per-stage array. Timers sit at stage granularity — around a whole
//! `completions_into` call or a whole cost fold — never inside the
//! per-candidate inner loops, so the enabled profiler perturbs the thing
//! it measures as little as possible.
//!
//! One phase's accumulation drains into a
//! [`PhaseProfile`] via
//! [`StageProfiler::take`], which the driver emits as
//! [`TraceEvent::PhaseProfiled`](paragon_des::trace::TraceEvent) for the
//! collector, the Perfetto exporter and the `rtsads_sim profile`
//! subcommand to consume.

use paragon_des::trace::PhaseProfile;

use crate::clock::MonotonicInstant;

/// The search pipeline stages the profiler attributes time to, in the
/// order of [`PhaseProfile::stages`]: screen, fill, cost, select, shard,
/// apply, undo. The discriminants index [`StageProfiler`]'s fixed
/// accumulator array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Phase-level feasibility screen over the batch.
    Screen = 0,
    /// SoA completion-column fill across all candidate processors.
    Fill = 1,
    /// Per-candidate `ce_k` cost fold and feasibility classification.
    Cost = 2,
    /// Child ordering and push: sorting the candidate batch and selecting
    /// the branch/best-vertex updates.
    Select = 3,
    /// Shard gate and shard-first ranking (hierarchical topologies).
    Shard = 4,
    /// `PathState::apply` chain walks when switching branches.
    Apply = 5,
    /// `PathState::undo` pops when backtracking.
    Undo = 6,
}

/// Number of stages — the length of the accumulator array.
pub const STAGE_COUNT: usize = 7;

/// A per-scratch stage-time accumulator. See the module docs for the
/// enable/measure/drain lifecycle.
#[derive(Debug, Default, Clone)]
pub struct StageProfiler {
    enabled: bool,
    stage_ns: [u64; STAGE_COUNT],
}

impl StageProfiler {
    /// A disabled profiler with empty accumulators.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

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
            self.stage_ns[stage as usize] += t.elapsed_ns();
        }
    }

    /// Credits `ns` nanoseconds to `stage` without reading the clock, when
    /// enabled. The engine times every stage with `start`/`stop`; this exists
    /// so tests can load known values and check what
    /// [`take`](StageProfiler::take) drains.
    #[inline]
    pub fn add_ns(&mut self, stage: Stage, ns: u64) {
        if self.enabled {
            self.stage_ns[stage as usize] += ns;
        }
    }

    /// Nanoseconds accumulated so far for one stage.
    #[must_use]
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stage_ns[stage as usize]
    }

    /// Total accumulated nanoseconds across all stages.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.stage_ns.iter().sum()
    }

    /// Drains the accumulation into a wire-format [`PhaseProfile`] and
    /// resets the accumulators for the next phase.
    pub fn take(&mut self) -> PhaseProfile {
        let [screen_ns, fill_ns, cost_ns, select_ns, shard_ns, apply_ns, undo_ns] =
            std::mem::take(&mut self.stage_ns);
        PhaseProfile {
            screen_ns,
            fill_ns,
            cost_ns,
            shard_ns,
            apply_ns,
            undo_ns,
            select_ns,
        }
    }

    /// Clears the accumulators without building a record.
    pub fn reset(&mut self) {
        self.stage_ns = [0; STAGE_COUNT];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_accumulates_nothing() {
        let mut p = StageProfiler::new();
        assert!(!p.enabled());
        let span = p.start();
        assert!(span.is_none(), "disabled start must not read the clock");
        p.stop(Stage::Fill, span);
        p.add_ns(Stage::Cost, 1_000);
        let rec = p.take();
        assert_eq!(rec.total_ns(), 0);
    }

    #[test]
    fn enabled_spans_credit_their_stage_and_take_resets() {
        let mut p = StageProfiler::new();
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
        p.add_ns(Stage::Select, 123);
        let fill = p.stage_ns(Stage::Fill);
        assert!(fill > 0);
        assert_eq!(p.stage_ns(Stage::Select), 123);
        assert_eq!(p.total_ns(), fill + 123);

        let rec = p.take();
        assert_eq!(rec.fill_ns, fill);
        assert_eq!(rec.select_ns, 123);
        assert_eq!(p.total_ns(), 0, "take() resets the accumulators");
    }

    #[test]
    fn each_stage_drains_into_the_field_stages_names_for_it() {
        let stages = [
            Stage::Screen,
            Stage::Fill,
            Stage::Cost,
            Stage::Select,
            Stage::Shard,
            Stage::Apply,
            Stage::Undo,
        ];
        assert_eq!(stages.len(), STAGE_COUNT);
        let mut p = StageProfiler::new();
        p.set_enabled(true);
        for (k, &stage) in stages.iter().enumerate() {
            p.add_ns(stage, 1 << k);
        }
        for (k, (name, ns)) in p.take().stages().into_iter().enumerate() {
            assert_eq!(ns, 1 << k, "stage {name}");
        }
    }
}
