//! A single working processor with a FIFO ready queue.

use paragon_des::{Duration, Time};
use rt_task::{ProcessorId, Task};

/// Planning-time availability of a processor that is down with no known
/// repair time: far enough in the future that no real deadline can pass the
/// feasibility test against it, yet small enough that adding a service
/// demand can never overflow the microsecond counter.
pub const UNAVAILABLE: Time = Time::from_micros(u64::MAX / 4);

/// One admitted execution slot. Slots are retained for the lifetime of the
/// run so that a failure applied retroactively (the host only observes
/// failures at phase boundaries) can still partition work around the exact
/// failure instant.
#[derive(Debug, Clone)]
struct Slot {
    task: Task,
    start: Time,
    service: Duration,
}

impl Slot {
    fn completion(&self) -> Time {
        self.start + self.service
    }
}

/// Work removed from a worker by a failure.
#[derive(Debug, Clone, Default)]
pub struct FailedWork {
    /// Queued-but-unstarted tasks handed back to the host for re-batching,
    /// in FIFO order, each paired with the start instant its retracted slot
    /// had been assigned.
    pub orphaned: Vec<(Task, Time)>,
    /// The task that was executing at the failure instant, with its start —
    /// present only under the `Lost` in-flight policy (it was killed and its
    /// completion record must be retracted).
    pub lost: Option<(Task, Time)>,
}

/// One working processor `P_k`.
///
/// The worker executes assignments non-preemptively in delivery order. Its
/// planning state is summarized by `busy_until` — the instant it finishes
/// everything currently queued — from which the paper's `Load_k` ("the
/// waiting time before the processor becomes available") follows directly.
/// It additionally keeps the admitted slots and a down flag so that fault
/// injection can orphan unstarted work back to the host.
///
/// # Example
///
/// ```
/// use paragon_des::{Duration, Time};
/// use paragon_platform::Worker;
/// use rt_task::{ProcessorId, Task, TaskId};
///
/// let task = Task::builder(TaskId::new(0))
///     .processing_time(Duration::from_millis(3))
///     .deadline(Time::from_millis(10))
///     .build();
/// let mut w = Worker::new(ProcessorId::new(0));
/// let (start, _) = w.admit(task, Time::from_millis(1), Duration::from_millis(3));
/// assert_eq!(start, Time::from_millis(1));
/// assert_eq!(w.busy_until(), Time::from_millis(4));
/// assert_eq!(w.load(Time::from_millis(1)), Duration::from_millis(3));
/// assert_eq!(w.load(Time::from_millis(10)), Duration::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct Worker {
    id: ProcessorId,
    busy_until: Time,
    busy_time: Duration,
    executed: u64,
    queue: Vec<Slot>,
    down: bool,
}

impl Worker {
    /// Creates an idle worker.
    #[must_use]
    pub fn new(id: ProcessorId) -> Self {
        Worker {
            id,
            busy_until: Time::ZERO,
            busy_time: Duration::ZERO,
            executed: 0,
            queue: Vec::new(),
            down: false,
        }
    }

    /// This worker's identifier.
    #[must_use]
    pub fn id(&self) -> ProcessorId {
        self.id
    }

    /// Appends `task` as a work item of length `service` delivered at `at`,
    /// returning the instant execution will start (after all previously
    /// queued work) and the task, which the new slot now owns.
    ///
    /// # Panics
    ///
    /// Panics if `service` is zero or the worker is down — the driver
    /// excludes down processors from placement, so an admission to one is a
    /// scheduling bug, not a recoverable condition.
    pub fn admit(&mut self, task: Task, at: Time, service: Duration) -> (Time, &Task) {
        assert!(
            !service.is_zero(),
            "zero-length work admitted to {}",
            self.id
        );
        assert!(!self.down, "work admitted to down processor {}", self.id);
        let start = self.busy_until.max(at);
        self.busy_until = start + service;
        self.busy_time += service;
        self.executed += 1;
        self.queue.push(Slot {
            task,
            start,
            service,
        });
        (start, &self.queue.last().expect("just pushed").task)
    }

    /// Marks the processor down at instant `at` and partitions its queue
    /// around that instant: slots that had not started (`start >= at`) are
    /// orphaned back to the caller, the in-flight slot (if any) is kept when
    /// `keep_in_flight` or returned as lost otherwise, and finished slots
    /// are untouched.
    ///
    /// `at` may lie in the past relative to later admissions — the host only
    /// observes failures at phase boundaries — and the partition is still
    /// exact because every slot's start is retained.
    ///
    /// Bookkeeping for retracted slots is rolled back: orphaned slots
    /// contribute nothing to `busy_time`/`executed`; a lost slot contributes
    /// only the service actually burned before the failure.
    ///
    /// # Panics
    ///
    /// Panics if the worker is already down.
    pub fn fail(&mut self, at: Time, keep_in_flight: bool) -> FailedWork {
        assert!(
            !self.down,
            "processor {} failed while already down",
            self.id
        );
        self.down = true;
        let mut out = FailedWork::default();
        let mut kept = Vec::with_capacity(self.queue.len());
        for slot in self.queue.drain(..) {
            if slot.start >= at {
                // Never started: fully retract and orphan.
                self.busy_time = self.busy_time.saturating_sub(slot.service);
                self.executed -= 1;
                out.orphaned.push((slot.task, slot.start));
            } else if slot.completion() > at {
                // In flight exactly at the failure instant.
                if keep_in_flight {
                    kept.push(slot);
                } else {
                    // Only the portion actually executed stays in busy_time.
                    self.busy_time = self.busy_time.saturating_sub(slot.service);
                    self.busy_time += at.saturating_since(slot.start);
                    self.executed -= 1;
                    out.lost = Some((slot.task, slot.start));
                }
            } else {
                kept.push(slot);
            }
        }
        self.queue = kept;
        self.busy_until = self
            .queue
            .iter()
            .map(Slot::completion)
            .max()
            .unwrap_or(Time::ZERO);
        out
    }

    /// Brings a down processor back up at instant `at`; it rejoins with an
    /// empty queue (orphans were re-batched at failure time) and becomes
    /// available no earlier than `at`.
    ///
    /// # Panics
    ///
    /// Panics if the worker is not down.
    pub fn recover(&mut self, at: Time) {
        assert!(self.down, "processor {} recovered while up", self.id);
        self.down = false;
        self.busy_until = self.busy_until.max(at);
    }

    /// Whether the processor is currently marked down.
    #[must_use]
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// The earliest instant a scheduling phase may plan new work on this
    /// worker, given the phase's execution bound `floor`: `busy_until`
    /// clamped below by `floor`, or [`UNAVAILABLE`] while the processor is
    /// down (no deadline can pass the feasibility test against it).
    #[must_use]
    pub fn available_from(&self, floor: Time) -> Time {
        if self.down {
            UNAVAILABLE
        } else {
            self.busy_until.max(floor)
        }
    }

    /// The instant this worker drains its queue.
    #[must_use]
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// The paper's `Load_k` at instant `now`: how long until the processor
    /// becomes available (zero if already idle; effectively unbounded while
    /// down).
    #[must_use]
    pub fn load(&self, now: Time) -> Duration {
        if self.down {
            return UNAVAILABLE.saturating_since(now);
        }
        self.busy_until.saturating_since(now)
    }

    /// Total service time executed so far (for utilization reports).
    #[must_use]
    pub fn busy_time(&self) -> Duration {
        self.busy_time
    }

    /// Number of work items executed.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Idle time over the window `[0, horizon]`: the horizon minus the
    /// service time executed, saturating at zero when the worker was busy
    /// the whole window (or beyond it).
    #[must_use]
    pub fn idle_time(&self, horizon: Time) -> Duration {
        horizon
            .saturating_since(Time::ZERO)
            .saturating_sub(self.busy_time)
    }

    /// Utilization over the window `[0, horizon]`, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is `Time::ZERO`.
    #[must_use]
    pub fn utilization(&self, horizon: Time) -> f64 {
        assert!(horizon > Time::ZERO, "utilization needs a positive horizon");
        let busy = self.busy_time.as_micros().min(horizon.as_micros());
        busy as f64 / horizon.as_micros() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_task::TaskId;

    fn task(id: u64) -> Task {
        Task::builder(TaskId::new(id))
            .processing_time(Duration::from_millis(1))
            .deadline(Time::from_millis(1_000))
            .build()
    }

    #[test]
    fn admit_when_idle_starts_immediately() {
        let mut w = Worker::new(ProcessorId::new(2));
        let (start, _) = w.admit(task(0), Time::from_millis(5), Duration::from_millis(2));
        assert_eq!(start, Time::from_millis(5));
        assert_eq!(w.busy_until(), Time::from_millis(7));
        assert_eq!(w.executed(), 1);
    }

    #[test]
    fn admit_when_busy_queues_fifo() {
        let mut w = Worker::new(ProcessorId::new(0));
        w.admit(task(0), Time::ZERO, Duration::from_millis(10));
        let (start, _) = w.admit(task(1), Time::from_millis(1), Duration::from_millis(5));
        assert_eq!(
            start,
            Time::from_millis(10),
            "second item waits for the first"
        );
        assert_eq!(w.busy_until(), Time::from_millis(15));
    }

    #[test]
    fn load_reflects_backlog() {
        let mut w = Worker::new(ProcessorId::new(0));
        assert_eq!(w.load(Time::ZERO), Duration::ZERO);
        w.admit(task(0), Time::ZERO, Duration::from_millis(4));
        assert_eq!(w.load(Time::from_millis(1)), Duration::from_millis(3));
    }

    #[test]
    fn busy_time_accumulates_across_gaps() {
        let mut w = Worker::new(ProcessorId::new(0));
        w.admit(task(0), Time::ZERO, Duration::from_millis(1));
        w.admit(task(1), Time::from_millis(100), Duration::from_millis(1));
        assert_eq!(w.busy_time(), Duration::from_millis(2));
        let u = w.utilization(Time::from_millis(200));
        assert!((u - 0.01).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn idle_time_complements_busy_time() {
        let mut w = Worker::new(ProcessorId::new(0));
        assert_eq!(
            w.idle_time(Time::from_millis(10)),
            Duration::from_millis(10)
        );
        w.admit(task(0), Time::ZERO, Duration::from_millis(4));
        assert_eq!(w.idle_time(Time::from_millis(10)), Duration::from_millis(6));
        // busy beyond the horizon saturates at zero idle
        assert_eq!(w.idle_time(Time::from_millis(2)), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero-length work")]
    fn zero_service_rejected() {
        let mut w = Worker::new(ProcessorId::new(0));
        w.admit(task(0), Time::ZERO, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive horizon")]
    fn utilization_rejects_zero_horizon() {
        let w = Worker::new(ProcessorId::new(0));
        let _ = w.utilization(Time::ZERO);
    }

    #[test]
    fn fail_partitions_done_in_flight_and_unstarted() {
        let mut w = Worker::new(ProcessorId::new(0));
        // done: [0,2ms); in flight at 3ms: [2,5ms); unstarted: [5,6ms), [6,7ms)
        w.admit(task(0), Time::ZERO, Duration::from_millis(2));
        w.admit(task(1), Time::ZERO, Duration::from_millis(3));
        w.admit(task(2), Time::ZERO, Duration::from_millis(1));
        w.admit(task(3), Time::ZERO, Duration::from_millis(1));
        assert_eq!(w.busy_time(), Duration::from_millis(7));

        let failed = w.fail(Time::from_millis(3), false);
        assert!(w.is_down());
        assert_eq!(failed.orphaned.len(), 2, "two unstarted slots orphaned");
        assert_eq!(failed.orphaned[0].0.id(), TaskId::new(2));
        assert_eq!(failed.orphaned[0].1, Time::from_millis(5));
        let (lost, lost_start) = failed.lost.clone().expect("in-flight task lost");
        assert_eq!(lost.id(), TaskId::new(1));
        assert_eq!(lost_start, Time::from_millis(2));
        // done 2ms + 1ms burned of the lost slot
        assert_eq!(w.busy_time(), Duration::from_millis(3));
        assert_eq!(w.executed(), 1, "only the finished slot still counts");
        assert_eq!(w.busy_until(), Time::from_millis(2));
    }

    #[test]
    fn fail_keeping_in_flight_lets_it_finish() {
        let mut w = Worker::new(ProcessorId::new(0));
        w.admit(task(0), Time::ZERO, Duration::from_millis(4));
        w.admit(task(1), Time::ZERO, Duration::from_millis(4));
        let failed = w.fail(Time::from_millis(1), true);
        assert!(failed.lost.is_none());
        assert_eq!(failed.orphaned.len(), 1);
        assert_eq!(w.busy_until(), Time::from_millis(4), "in-flight finishes");
        assert_eq!(w.busy_time(), Duration::from_millis(4));
        assert_eq!(w.executed(), 1);
    }

    #[test]
    fn down_worker_is_unavailable_and_recovers() {
        let mut w = Worker::new(ProcessorId::new(0));
        let _ = w.fail(Time::from_millis(1), false);
        assert_eq!(w.available_from(Time::from_millis(2)), UNAVAILABLE);
        assert!(w.load(Time::from_millis(2)) > Duration::from_secs(1_000_000));
        w.recover(Time::from_millis(10));
        assert!(!w.is_down());
        assert_eq!(w.busy_until(), Time::from_millis(10));
        assert_eq!(
            w.available_from(Time::from_millis(2)),
            Time::from_millis(10)
        );
        let (start, _) = w.admit(task(5), Time::from_millis(3), Duration::from_millis(1));
        assert_eq!(start, Time::from_millis(10), "no work before recovery");
    }

    #[test]
    #[should_panic(expected = "down processor")]
    fn admit_to_down_worker_panics() {
        let mut w = Worker::new(ProcessorId::new(0));
        let _ = w.fail(Time::ZERO, false);
        let _ = w.admit(task(0), Time::from_millis(1), Duration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_fail_panics() {
        let mut w = Worker::new(ProcessorId::new(0));
        let _ = w.fail(Time::ZERO, false);
        let _ = w.fail(Time::from_millis(1), false);
    }

    #[test]
    fn retroactive_fail_orphans_later_admissions() {
        // The host discovers the failure late: work admitted after the
        // failure instant is still orphaned exactly.
        let mut w = Worker::new(ProcessorId::new(0));
        w.admit(task(0), Time::ZERO, Duration::from_millis(1)); // done by 1ms
        w.admit(task(1), Time::from_millis(5), Duration::from_millis(1)); // starts 5ms
        let failed = w.fail(Time::from_millis(2), false);
        assert!(failed.lost.is_none());
        assert_eq!(failed.orphaned.len(), 1);
        assert_eq!(failed.orphaned[0].0.id(), TaskId::new(1));
        assert_eq!(w.busy_time(), Duration::from_millis(1));
    }
}
