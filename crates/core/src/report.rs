//! Per-phase records and the end-to-end run report.

use paragon_des::{Duration, Time};
use paragon_platform::CompletionRecord;
use sched_search::Termination;
use serde::{Deserialize, Serialize};

/// Diagnostics of one scheduling phase `j`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// Phase index `j`.
    pub phase: u64,
    /// Phase start `t_s`.
    pub started: Time,
    /// Batch size after expiry filtering.
    pub batch_len: usize,
    /// Tasks dropped by the expiry filter at phase start.
    pub dropped: usize,
    /// Tasks still in the batch whose deadline lapsed while this phase was
    /// computing. They are *not* dropped yet — the next phase's expiry
    /// filter drops (and counts) them — so this never overlaps `dropped` of
    /// the same record, but each such task reappears in the next record's
    /// `dropped`.
    pub expired_mid_phase: usize,
    /// Allocated quantum `Q_s(j)` (after the driver's floor).
    pub quantum: Duration,
    /// Scheduling time actually consumed.
    pub consumed: Duration,
    /// Search vertices generated.
    pub vertices: u64,
    /// Backtracks performed.
    pub backtracks: u64,
    /// Assignments the incremental engine reverted while switching branches
    /// (O(1) each).
    pub undos: u64,
    /// Apply steps a per-pop root replay would have redone that the
    /// incremental engine skipped.
    pub replay_avoided: u64,
    /// Deepest feasible partial schedule reached.
    pub deepest: usize,
    /// Tasks scheduled (dispatched) by the phase.
    pub scheduled: usize,
    /// Distinct processors the phase's schedule used.
    pub processors_used: usize,
    /// How the phase's search ended.
    pub termination: Termination,
    /// Tasks handed back to the host by processor failures or lost dispatch
    /// messages since the previous phase boundary; they re-enter the next
    /// batch. A task may orphan more than once, so this is an event count.
    /// The run's final record also absorbs any fault fallout observed after
    /// the last phase, so these tallies sum to the run totals.
    pub orphaned: usize,
    /// Tasks killed mid-execution by a processor failure since the previous
    /// phase boundary (the final record also covers post-phase events).
    /// These are gone for good.
    pub lost_in_flight: usize,
    /// Processor failures the host observed since the previous phase
    /// boundary (the final record also covers post-phase events).
    pub faults: usize,
}

/// The outcome of one complete simulation run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunReport {
    /// The scheduling algorithm's display name.
    pub algorithm: String,
    /// Number of tasks submitted.
    pub total_tasks: usize,
    /// Tasks that completed by their deadline.
    pub hits: usize,
    /// Tasks dropped from batches because their deadline passed before they
    /// could be scheduled.
    pub dropped: usize,
    /// Tasks that were scheduled yet missed their deadline at execution time
    /// — the paper's theorem guarantees this is zero on a fault-free
    /// platform. Under fault injection the guarantee is conditional: a task
    /// queued behind a recovery, delayed by a communication spike, or
    /// re-batched after an orphaning may execute late, so this can be
    /// positive.
    pub executed_misses: usize,
    /// Every task execution, in delivery order.
    pub completions: Vec<CompletionRecord>,
    /// Per-phase diagnostics.
    pub phases: Vec<PhaseRecord>,
    /// Distinct workers that executed at least one task.
    pub workers_used: usize,
    /// Total busy (service) time per worker, indexed by processor.
    pub worker_busy: Vec<Duration>,
    /// Idle time per worker over `[0, finished_at]`, indexed by processor —
    /// the platform's own `Worker::idle_time` accounting, cross-checked
    /// against `worker_busy` in [`RunReport::is_consistent`]. Empty in
    /// report files written before this field existed (`serde(default)`).
    #[serde(default)]
    pub worker_idle: Vec<Duration>,
    /// Total busy time per node (shard) on a hierarchical platform, indexed
    /// by node: `shard_busy[n]` sums `worker_busy` over the node's
    /// processors. Empty on the flat machine and in report files written
    /// before topologies existed (`serde(default)`).
    #[serde(default)]
    pub shard_busy: Vec<Duration>,
    /// The instant the last completion finished (or the last phase ended).
    pub finished_at: Time,
    /// Orphaning events: tasks handed back to the host by failures or lost
    /// dispatch messages. A task may orphan more than once (dispatch, fail,
    /// re-dispatch, fail again), so this counts events, not tasks, and is
    /// *not* part of the [`RunReport::is_consistent`] partition — every
    /// orphaned task eventually lands in `hits`, `executed_misses`, or
    /// `dropped`.
    pub orphaned: usize,
    /// Tasks killed mid-execution by processor failures — a terminal
    /// outcome, disjoint from hits/misses/drops.
    pub lost_in_flight: usize,
    /// Processor failures applied during the run.
    pub faults_seen: usize,
}

impl RunReport {
    /// The paper's headline metric: fraction of tasks that completed by
    /// their deadline. An empty run (no tasks submitted) vacuously hit
    /// every deadline, so this returns `1.0` rather than `0/0 = NaN`.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.total_tasks == 0 {
            return 1.0;
        }
        self.hits as f64 / self.total_tasks as f64
    }

    /// Total scheduling time consumed across phases — the paper's
    /// "scheduling cost as the physical time required to run the scheduling
    /// algorithm".
    #[must_use]
    pub fn total_scheduling_time(&self) -> Duration {
        self.phases.iter().map(|p| p.consumed).sum()
    }

    /// Total vertices generated across phases.
    #[must_use]
    pub fn total_vertices(&self) -> u64 {
        self.phases.iter().map(|p| p.vertices).sum()
    }

    /// Total backtracks across phases.
    #[must_use]
    pub fn total_backtracks(&self) -> u64 {
        self.phases.iter().map(|p| p.backtracks).sum()
    }

    /// Total incremental-engine undo steps across phases.
    #[must_use]
    pub fn total_undos(&self) -> u64 {
        self.phases.iter().map(|p| p.undos).sum()
    }

    /// Number of phases that ended at a dead-end.
    #[must_use]
    pub fn dead_end_phases(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| p.termination == Termination::DeadEnd)
            .count()
    }

    /// Mean number of distinct processors used per non-empty schedule —
    /// the processor-coverage measure behind the paper's scalability
    /// conjecture. `None` if no phase scheduled anything.
    #[must_use]
    pub fn mean_processors_used(&self) -> Option<f64> {
        let used: Vec<usize> = self
            .phases
            .iter()
            .filter(|p| p.scheduled > 0)
            .map(|p| p.processors_used)
            .collect();
        if used.is_empty() {
            None
        } else {
            Some(used.iter().sum::<usize>() as f64 / used.len() as f64)
        }
    }

    /// Response time (completion − delivery-relevant arrival) of every
    /// executed task, in completion-record order. The arrival is not stored
    /// in the completion record, so this uses delivery as the baseline when
    /// `from_delivery` is `true`, and the start of the run otherwise — both
    /// useful: delivery-relative isolates queueing, absolute shows
    /// end-to-end latency for the paper's burst (where every arrival is 0).
    #[must_use]
    pub fn response_times(&self, from_delivery: bool) -> Vec<Duration> {
        self.completions
            .iter()
            .map(|c| {
                if from_delivery {
                    c.completion - c.delivered
                } else {
                    c.completion.saturating_since(Time::ZERO)
                }
            })
            .collect()
    }

    /// Mean response time of executed tasks (see
    /// [`RunReport::response_times`]); `None` if nothing executed.
    #[must_use]
    pub fn mean_response_time(&self, from_delivery: bool) -> Option<Duration> {
        let times = self.response_times(from_delivery);
        if times.is_empty() {
            return None;
        }
        let total: Duration = times.iter().copied().sum();
        Some(total / times.len() as u64)
    }

    /// Per-worker utilization over `[0, finished_at]`, in `[0, 1]`. Empty if
    /// the run finished instantly.
    #[must_use]
    pub fn worker_utilizations(&self) -> Vec<f64> {
        if self.finished_at == Time::ZERO {
            return vec![0.0; self.worker_busy.len()];
        }
        let horizon = self.finished_at.as_micros() as f64;
        self.worker_busy
            .iter()
            .map(|b| b.as_micros() as f64 / horizon)
            .collect()
    }

    /// Per-shard (node) utilization over `[0, finished_at]`, normalized by
    /// the shard's processor-seconds so a fully busy 4-processor node reads
    /// `1.0`, not `4.0`. Empty on flat runs, where [`RunReport::shard_busy`]
    /// is empty. Shard sizes come from re-partitioning `worker_busy.len()`
    /// processors over `shard_busy.len()` nodes, matching the contiguous
    /// balanced split of `rt_task::TopologySpec`.
    #[must_use]
    pub fn shard_utilizations(&self) -> Vec<f64> {
        if self.shard_busy.is_empty() {
            return Vec::new();
        }
        let horizon = self.finished_at.as_micros() as f64;
        let workers = self.worker_busy.len();
        let nodes = self.shard_busy.len();
        self.shard_busy
            .iter()
            .enumerate()
            .map(|(n, b)| {
                let base = workers / nodes;
                let size = base + usize::from(n < workers % nodes);
                let denom = horizon * size as f64;
                if denom == 0.0 {
                    0.0
                } else {
                    b.as_micros() as f64 / denom
                }
            })
            .collect()
    }

    /// Per-worker busy fractions `busy / (busy + idle)` from the platform's
    /// own busy/idle accounting, in `[0, 1]`. Falls back to the
    /// `finished_at` horizon only when `worker_idle` is absent entirely —
    /// a legacy report file written before the field existed — matching
    /// [`RunReport::worker_utilizations`].
    ///
    /// # Panics
    ///
    /// Panics when `worker_idle` is non-empty but its length disagrees with
    /// `worker_busy`: that is corrupt accounting ([`RunReport::is_consistent`]
    /// flags it), not a legacy file, and silently substituting the horizon
    /// estimate would mask it.
    #[must_use]
    pub fn busy_fractions(&self) -> Vec<f64> {
        if self.worker_idle.is_empty() {
            return self.worker_utilizations();
        }
        assert_eq!(
            self.worker_idle.len(),
            self.worker_busy.len(),
            "worker_idle/worker_busy length mismatch: corrupt report, not a legacy one"
        );
        self.worker_busy
            .iter()
            .zip(&self.worker_idle)
            .map(|(b, i)| {
                let total = b.as_micros() + i.as_micros();
                if total == 0 {
                    0.0
                } else {
                    b.as_micros() as f64 / total as f64
                }
            })
            .collect()
    }

    /// Min/mean/max of [`RunReport::busy_fractions`]; `None` when the run
    /// had no workers.
    #[must_use]
    pub fn utilization_summary(&self) -> Option<(f64, f64, f64)> {
        let fractions = self.busy_fractions();
        if fractions.is_empty() {
            return None;
        }
        let min = fractions.iter().copied().fold(f64::INFINITY, f64::min);
        let max = fractions.iter().copied().fold(0.0_f64, f64::max);
        let mean = fractions.iter().sum::<f64>() / fractions.len() as f64;
        Some((min, mean, max))
    }

    /// Load-imbalance factor: busiest worker's busy time divided by the
    /// mean busy time. 1.0 = perfectly balanced; `None` if no work ran.
    #[must_use]
    pub fn load_imbalance(&self) -> Option<f64> {
        let total: u64 = self.worker_busy.iter().map(|b| b.as_micros()).sum();
        if total == 0 || self.worker_busy.is_empty() {
            return None;
        }
        let mean = total as f64 / self.worker_busy.len() as f64;
        let max = self
            .worker_busy
            .iter()
            .map(|b| b.as_micros())
            .max()
            .unwrap_or(0) as f64;
        Some(max / mean)
    }

    /// Internal consistency: every task is accounted for exactly once, the
    /// headline ratio is a well-defined probability (in particular not
    /// `NaN` for an empty run), and — when the per-worker idle times are
    /// present — busy and idle agree with the `[0, finished_at]` horizon
    /// worker by worker (`idle == horizon - busy`, saturating at zero for
    /// busy intervals a retroactive fault burned past the last surviving
    /// completion).
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        let ratio = self.hit_ratio();
        let horizon = self.finished_at.saturating_since(Time::ZERO);
        let idle_consistent = self.worker_idle.is_empty()
            || (self.worker_idle.len() == self.worker_busy.len()
                && self
                    .worker_busy
                    .iter()
                    .zip(&self.worker_idle)
                    .all(|(b, i)| *i == horizon.saturating_sub(*b)));
        // When per-shard totals are present they must partition the same
        // busy time the workers report, shard count bounded by workers.
        let shard_consistent = self.shard_busy.is_empty()
            || (self.shard_busy.len() <= self.worker_busy.len()
                && self.shard_busy.iter().copied().sum::<Duration>()
                    == self.worker_busy.iter().copied().sum::<Duration>());
        self.hits + self.executed_misses + self.dropped + self.lost_in_flight == self.total_tasks
            && self.completions.len() == self.hits + self.executed_misses
            && idle_consistent
            && shard_consistent
            && ratio.is_finite()
            && (0.0..=1.0).contains(&ratio)
    }

    /// Total orphaning events recorded at phase boundaries. Equals
    /// [`RunReport::orphaned`] when the run ended cleanly.
    #[must_use]
    pub fn total_phase_orphaned(&self) -> usize {
        self.phases.iter().map(|p| p.orphaned).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(termination: Termination, scheduled: usize, procs: usize) -> PhaseRecord {
        PhaseRecord {
            phase: 0,
            started: Time::ZERO,
            batch_len: 10,
            dropped: 0,
            expired_mid_phase: 1,
            quantum: Duration::from_micros(100),
            consumed: Duration::from_micros(60),
            vertices: 12,
            backtracks: 3,
            undos: 5,
            replay_avoided: 8,
            deepest: scheduled,
            scheduled,
            processors_used: procs,
            termination,
            orphaned: 0,
            lost_in_flight: 0,
            faults: 0,
        }
    }

    fn report(phases: Vec<PhaseRecord>) -> RunReport {
        RunReport {
            algorithm: "RT-SADS".into(),
            total_tasks: 10,
            hits: 7,
            dropped: 3,
            executed_misses: 0,
            completions: Vec::new(),
            phases,
            workers_used: 4,
            worker_busy: vec![
                Duration::from_millis(4),
                Duration::from_millis(2),
                Duration::from_millis(2),
                Duration::ZERO,
            ],
            shard_busy: Vec::new(),
            worker_idle: vec![
                Duration::from_millis(1),
                Duration::from_millis(3),
                Duration::from_millis(3),
                Duration::from_millis(5),
            ],
            finished_at: Time::from_millis(5),
            orphaned: 0,
            lost_in_flight: 0,
            faults_seen: 0,
        }
    }

    #[test]
    fn hit_ratio_and_aggregates() {
        let r = report(vec![
            record(Termination::QuantumExhausted, 4, 4),
            record(Termination::DeadEnd, 3, 2),
            record(Termination::DeadEnd, 0, 0),
        ]);
        assert!((r.hit_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(r.total_scheduling_time(), Duration::from_micros(180));
        assert_eq!(r.total_vertices(), 36);
        assert_eq!(r.total_backtracks(), 9);
        assert_eq!(r.total_undos(), 15);
        assert_eq!(r.dead_end_phases(), 2);
        assert_eq!(r.mean_processors_used(), Some(3.0));
    }

    #[test]
    fn mean_processors_none_when_nothing_scheduled() {
        let r = report(vec![record(Termination::DeadEnd, 0, 0)]);
        assert_eq!(r.mean_processors_used(), None);
    }

    #[test]
    fn consistency_check() {
        let mut r = report(vec![]);
        // completions must match hits + executed misses; empty does not
        assert!(!r.is_consistent());
        r.hits = 0;
        r.dropped = 10;
        assert!(r.is_consistent());
    }

    #[test]
    fn response_times_from_completions() {
        use paragon_platform::CompletionRecord;
        use rt_task::{ProcessorId, TaskId};
        let mut r = report(vec![]);
        assert_eq!(r.mean_response_time(true), None);
        r.completions = vec![CompletionRecord {
            task: TaskId::new(0),
            processor: ProcessorId::new(0),
            delivered: Time::from_millis(1),
            start: Time::from_millis(2),
            completion: Time::from_millis(5),
            deadline: Time::from_millis(9),
            met_deadline: true,
            service: Duration::from_millis(3),
        }];
        assert_eq!(
            r.response_times(true),
            vec![Duration::from_millis(4)] // 5 - 1
        );
        assert_eq!(r.mean_response_time(false), Some(Duration::from_millis(5)));
    }

    #[test]
    fn utilization_and_imbalance() {
        let r = report(vec![]);
        let u = r.worker_utilizations();
        assert_eq!(u.len(), 4);
        assert!((u[0] - 0.8).abs() < 1e-12);
        assert_eq!(u[3], 0.0);
        // busiest 4ms, mean 2ms -> imbalance 2.0
        assert_eq!(r.load_imbalance(), Some(2.0));
        let mut idle = r.clone();
        idle.worker_busy = vec![Duration::ZERO; 4];
        assert_eq!(idle.load_imbalance(), None);
    }

    #[test]
    fn busy_fractions_from_platform_accounting() {
        let r = report(vec![]);
        let f = r.busy_fractions();
        assert_eq!(f.len(), 4);
        assert!((f[0] - 0.8).abs() < 1e-12, "4ms busy / 5ms horizon");
        assert_eq!(f[3], 0.0);
        let (min, mean, max) = r.utilization_summary().unwrap();
        assert_eq!(min, 0.0);
        assert!((max - 0.8).abs() < 1e-12);
        assert!((mean - 0.4).abs() < 1e-12);
        // Old report files have no worker_idle: fall back to the horizon.
        let mut old = r.clone();
        old.worker_idle.clear();
        assert_eq!(old.busy_fractions(), r.worker_utilizations());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn busy_fractions_rejects_a_non_legacy_length_mismatch() {
        // A truncated (but non-empty) idle vector is corrupt accounting,
        // not a legacy file: no silent fallback to the horizon estimate.
        let mut r = report(vec![]);
        r.worker_idle.pop();
        let _ = r.busy_fractions();
    }

    #[test]
    fn non_legacy_idle_length_mismatch_is_inconsistent() {
        let mut r = report(vec![]);
        r.hits = 0;
        r.dropped = 10;
        assert!(r.is_consistent());
        r.worker_idle.pop();
        assert!(
            !r.is_consistent(),
            "a non-empty worker_idle of the wrong length must be flagged"
        );
    }

    #[test]
    fn shard_busy_must_partition_worker_busy() {
        let mut r = report(vec![]);
        r.hits = 0;
        r.dropped = 10;
        // 4 workers on 2 nodes: (4+2)ms and (2+0)ms.
        r.shard_busy = vec![Duration::from_millis(6), Duration::from_millis(2)];
        assert!(r.is_consistent());
        let u = r.shard_utilizations();
        assert_eq!(u.len(), 2);
        // 6ms over 2 processors x 5ms horizon, 2ms over 2 x 5ms.
        assert!((u[0] - 0.6).abs() < 1e-12);
        assert!((u[1] - 0.2).abs() < 1e-12);
        r.shard_busy[1] = Duration::from_millis(3);
        assert!(!r.is_consistent(), "shard totals must sum to worker totals");
        r.shard_busy.clear();
        assert!(r.is_consistent(), "flat runs carry no shard totals");
        assert!(r.shard_utilizations().is_empty());
    }

    #[test]
    fn idle_accounting_must_agree_with_the_horizon() {
        let mut r = report(vec![]);
        r.hits = 0;
        r.dropped = 10;
        assert!(r.is_consistent());
        r.worker_idle[1] = Duration::from_millis(4); // 2ms busy + 4ms idle != 5ms
        assert!(!r.is_consistent(), "idle must equal horizon - busy");
        r.worker_idle.clear();
        assert!(r.is_consistent(), "absent idle vector is tolerated");
        // Busy time past the horizon (a fault burned the tail) saturates.
        r.worker_busy[0] = Duration::from_millis(7);
        r.worker_idle = vec![
            Duration::ZERO,
            Duration::from_millis(3),
            Duration::from_millis(3),
            Duration::from_millis(5),
        ];
        assert!(r.is_consistent());
    }

    #[test]
    fn lost_in_flight_joins_the_accounting_partition() {
        let mut r = report(vec![]);
        r.hits = 0;
        r.dropped = 9;
        r.lost_in_flight = 1;
        assert!(r.is_consistent(), "0 + 0 + 9 + 1 == 10");
        r.lost_in_flight = 2;
        assert!(!r.is_consistent(), "over-counted partition must fail");
    }

    #[test]
    fn phase_orphan_events_aggregate() {
        let mut a = record(Termination::QuantumExhausted, 2, 2);
        a.orphaned = 3;
        let mut b = record(Termination::DeadEnd, 0, 0);
        b.orphaned = 1;
        let r = report(vec![a, b]);
        assert_eq!(r.total_phase_orphaned(), 4);
    }

    #[test]
    fn hit_ratio_of_empty_run_is_vacuously_one() {
        let mut r = report(vec![]);
        r.total_tasks = 0;
        r.hits = 0;
        r.dropped = 0;
        let ratio = r.hit_ratio();
        assert!(ratio.is_finite(), "no NaN from 0/0");
        assert!((ratio - 1.0).abs() < 1e-12);
        assert!(r.is_consistent());
    }
}
