//! Turns the trace-event stream into metrics.
//!
//! [`MetricsCollector`] is a [`TraceSink`] that folds every event into a
//! [`MetricsRegistry`] under a fixed naming scheme, shared by RT-SADS and
//! D-COLS runs so their result files stay directly comparable:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `phase.count` | counter | scheduling phases run |
//! | `phase.batch_len` | histogram | batch size at phase start |
//! | `phase.quantum_us` | histogram | allocated `Q_s(j)` |
//! | `phase.consumed_us` | histogram | scheduling time actually used |
//! | `phase.vertices` | histogram | search vertices per phase |
//! | `phase.backtracks` | histogram | backtracks per phase |
//! | `phase.undos` | histogram | incremental-engine undo steps per phase |
//! | `phase.replay_avoided` | histogram | replay applies avoided per phase |
//! | `phase.scheduled` | histogram | tasks dispatched per phase |
//! | `phase.sched_wall_ns` | histogram | measured scheduler wall time per phase |
//! | `profile.<stage>_ns` | histogram | per-phase wall time of one search stage (`screen`, `fill`, `cost`, `select`, `shard`, `apply`, `undo`), from `PhaseProfiled` |
//! | `task.admitted` | counter | tasks admitted into a batch |
//! | `task.screened` | counter | viability-screen rejections recorded |
//! | `task.placements` | counter | placement decisions recorded |
//! | `task.slack_at_dispatch_us` | histogram | `deadline − start` at dispatch |
//! | `task.lateness_us` | histogram | `completion − deadline` |
//! | `comm.delay_us` | histogram | data-shipping delay per remote task |
//! | `task.started` / `task.completed` | counter | execution lifecycle |
//! | `task.deadline_hits` / `task.deadline_misses` | counter | outcome split |
//! | `task.dropped_at_phase_start` | counter | expiry-filtered at `t_s` |
//! | `task.expired_mid_phase` | counter | deadline lapsed during a phase |
//! | `fault.processor_failures` | counter | processor down events |
//! | `fault.processor_recoveries` | counter | processor up events |
//! | `fault.orphaned_per_failure` | histogram | queued tasks orphaned by one failure |
//! | `task.orphaned` | counter | tasks handed back to the host |
//! | `task.lost_in_flight` | counter | tasks killed mid-execution |
//! | `sim.finished_at_us` | gauge | largest event timestamp seen |
//!
//! A retroactively applied failure retracts completions whose
//! `TaskCompleted` events were already emitted at delivery time, so under
//! fault injection the lifecycle counters (`task.completed`,
//! `task.deadline_hits`, …) count *executions*, including ones later
//! undone; the per-task fault counters say how many were. Per-failure
//! aggregates come from `ProcessorFailed` itself; the per-task counters
//! come from the individual `TaskOrphaned`/`TaskLost` events, so nothing
//! is double-counted.

use paragon_des::trace::{TraceEvent, TraceSink};
use paragon_des::Time;

use crate::metrics::MetricsRegistry;

/// A [`TraceSink`] that aggregates events into a [`MetricsRegistry`].
#[derive(Debug, Default)]
pub struct MetricsCollector {
    registry: MetricsRegistry,
}

/// Clamps a `u64` into the histogram's signed sample domain.
fn as_sample(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

impl MetricsCollector {
    /// A collector with an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the aggregated metrics.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Mutable access, for folding in metrics that do not come from events
    /// (per-worker busy/idle times from the final report, for example).
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }
}

impl TraceSink for MetricsCollector {
    fn emit(&mut self, now: Time, event: TraceEvent) {
        let r = &mut self.registry;
        let finished = r.gauge("sim.finished_at_us").unwrap_or(0.0);
        r.set_gauge("sim.finished_at_us", finished.max(now.as_micros() as f64));
        match event {
            TraceEvent::TaskAdmitted { .. } => {
                r.inc("task.admitted", 1);
            }
            TraceEvent::TaskScreened { .. } => {
                r.inc("task.screened", 1);
            }
            TraceEvent::PlacementDecided { .. } => {
                r.inc("task.placements", 1);
            }
            TraceEvent::SchedulerOverhead { wall_ns, .. } => {
                r.record("phase.sched_wall_ns", as_sample(wall_ns));
            }
            TraceEvent::PhaseProfiled { profile, .. } => {
                for (stage, ns) in profile.stages() {
                    r.record(&format!("profile.{stage}_ns"), as_sample(ns));
                }
            }
            TraceEvent::PhaseStarted {
                batch_len, quantum, ..
            } => {
                r.inc("phase.count", 1);
                r.record("phase.batch_len", as_sample(batch_len as u64));
                r.record("phase.quantum_us", as_sample(quantum.as_micros()));
            }
            TraceEvent::PhaseEnded {
                scheduled,
                consumed,
                vertices,
                backtracks,
                undos,
                replay_avoided,
                ..
            } => {
                r.record("phase.consumed_us", as_sample(consumed.as_micros()));
                r.record("phase.vertices", as_sample(vertices));
                r.record("phase.backtracks", as_sample(backtracks));
                r.record("phase.undos", as_sample(undos));
                r.record("phase.replay_avoided", as_sample(replay_avoided));
                r.record("phase.scheduled", as_sample(scheduled as u64));
            }
            TraceEvent::TaskDispatched { slack_us, .. } => {
                r.record("task.slack_at_dispatch_us", slack_us);
            }
            TraceEvent::CommDelay { delay_us, .. } => {
                r.record("comm.delay_us", as_sample(delay_us));
            }
            TraceEvent::TaskStarted { .. } => {
                r.inc("task.started", 1);
            }
            TraceEvent::TaskCompleted {
                met_deadline,
                lateness_us,
                ..
            } => {
                r.inc("task.completed", 1);
                r.inc(
                    if met_deadline {
                        "task.deadline_hits"
                    } else {
                        "task.deadline_misses"
                    },
                    1,
                );
                r.record("task.lateness_us", lateness_us);
            }
            TraceEvent::TaskDropped { .. } => {
                r.inc("task.dropped_at_phase_start", 1);
            }
            TraceEvent::TaskExpiredMidPhase { .. } => {
                r.inc("task.expired_mid_phase", 1);
            }
            TraceEvent::ProcessorFailed { orphaned, .. } => {
                r.inc("fault.processor_failures", 1);
                r.record("fault.orphaned_per_failure", as_sample(orphaned as u64));
            }
            TraceEvent::ProcessorRecovered { .. } => {
                r.inc("fault.processor_recoveries", 1);
            }
            TraceEvent::TaskOrphaned { .. } => {
                r.inc("task.orphaned", 1);
            }
            TraceEvent::TaskLost { .. } => {
                r.inc("task.lost_in_flight", 1);
            }
            TraceEvent::Note(_) => {
                r.inc("note.count", 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_des::Duration;

    #[test]
    fn events_land_under_the_documented_names() {
        let mut c = MetricsCollector::new();
        c.emit(
            Time::from_micros(0),
            TraceEvent::TaskAdmitted {
                task: 1,
                arrival_us: 0,
                deadline_us: 900,
                processing_us: 50,
            },
        );
        c.emit(
            Time::from_micros(0),
            TraceEvent::PhaseStarted {
                phase: 0,
                batch_len: 5,
                quantum: Duration::from_micros(100),
            },
        );
        c.emit(
            Time::from_micros(100),
            TraceEvent::PhaseEnded {
                phase: 0,
                scheduled: 3,
                consumed: Duration::from_micros(90),
                vertices: 12,
                backtracks: 2,
                undos: 4,
                replay_avoided: 6,
            },
        );
        c.emit(
            Time::from_micros(100),
            TraceEvent::TaskScreened {
                task: 9,
                phase: 0,
                deadline_us: 120,
                probes: Vec::new(),
            },
        );
        c.emit(
            Time::from_micros(100),
            TraceEvent::PlacementDecided {
                task: 1,
                phase: 0,
                processor: 0,
                completion_us: 150,
                cost_us: 150,
                shard: None,
                rejected: Vec::new(),
            },
        );
        c.emit(
            Time::from_micros(100),
            TraceEvent::SchedulerOverhead {
                phase: 0,
                allocated_us: 100,
                wall_ns: 42_000,
            },
        );
        c.emit(
            Time::from_micros(100),
            TraceEvent::PhaseProfiled {
                phase: 0,
                profile: paragon_des::trace::PhaseProfile {
                    screen_ns: 100,
                    fill_ns: 2_000,
                    cost_ns: 5_000,
                    shard_ns: 0,
                    apply_ns: 300,
                    undo_ns: 200,
                    select_ns: 50,
                },
            },
        );
        c.emit(
            Time::from_micros(100),
            TraceEvent::TaskDispatched {
                task: 1,
                processor: 0,
                slack_us: 40,
            },
        );
        c.emit(
            Time::from_micros(100),
            TraceEvent::CommDelay {
                task: 1,
                processor: 0,
                delay_us: 7,
            },
        );
        c.emit(
            Time::from_micros(100),
            TraceEvent::TaskStarted {
                task: 1,
                processor: 0,
            },
        );
        c.emit(
            Time::from_micros(150),
            TraceEvent::TaskCompleted {
                task: 1,
                processor: 0,
                met_deadline: true,
                lateness_us: -10,
            },
        );
        c.emit(Time::from_micros(150), TraceEvent::TaskDropped { task: 2 });
        c.emit(
            Time::from_micros(150),
            TraceEvent::TaskExpiredMidPhase { task: 3, phase: 0 },
        );
        c.emit(
            Time::from_micros(160),
            TraceEvent::ProcessorFailed {
                processor: 0,
                fail_stop: false,
                orphaned: 2,
                lost: 1,
            },
        );
        c.emit(
            Time::from_micros(160),
            TraceEvent::TaskOrphaned {
                task: 4,
                processor: 0,
            },
        );
        c.emit(
            Time::from_micros(160),
            TraceEvent::TaskOrphaned {
                task: 5,
                processor: 0,
            },
        );
        c.emit(
            Time::from_micros(160),
            TraceEvent::TaskLost {
                task: 6,
                processor: 0,
            },
        );
        c.emit(
            Time::from_micros(200),
            TraceEvent::ProcessorRecovered { processor: 0 },
        );

        let r = c.registry();
        assert_eq!(r.counter("task.admitted"), 1);
        assert_eq!(r.counter("task.screened"), 1);
        assert_eq!(r.counter("task.placements"), 1);
        assert_eq!(
            r.histogram("phase.sched_wall_ns").unwrap().p50(),
            Some(42_000)
        );
        assert_eq!(r.counter("fault.processor_failures"), 1);
        assert_eq!(r.counter("fault.processor_recoveries"), 1);
        assert_eq!(r.counter("task.orphaned"), 2);
        assert_eq!(r.counter("task.lost_in_flight"), 1);
        assert_eq!(
            r.histogram("fault.orphaned_per_failure").unwrap().p50(),
            Some(2)
        );
        assert_eq!(r.gauge("sim.finished_at_us"), Some(200.0));
        assert_eq!(r.counter("phase.count"), 1);
        assert_eq!(r.counter("task.started"), 1);
        assert_eq!(r.counter("task.completed"), 1);
        assert_eq!(r.counter("task.deadline_hits"), 1);
        assert_eq!(r.counter("task.deadline_misses"), 0);
        assert_eq!(r.counter("task.dropped_at_phase_start"), 1);
        assert_eq!(r.counter("task.expired_mid_phase"), 1);
        assert_eq!(r.histogram("phase.quantum_us").unwrap().p50(), Some(100));
        assert_eq!(
            r.histogram("task.slack_at_dispatch_us").unwrap().p50(),
            Some(40)
        );
        assert_eq!(r.histogram("task.lateness_us").unwrap().p50(), Some(-10));
        assert_eq!(r.histogram("profile.cost_ns").unwrap().p50(), Some(5_000));
        assert_eq!(r.histogram("profile.shard_ns").unwrap().count(), 1);
        assert_eq!(r.histogram("profile.select_ns").unwrap().p50(), Some(50));
        assert_eq!(r.histogram("comm.delay_us").unwrap().count(), 1);
        let snap = c.registry().snapshot();
        assert!(snap.histograms.contains_key("phase.consumed_us"));
    }
}
