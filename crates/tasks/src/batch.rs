//! `Batch(j)` — the input to one scheduling phase.
//!
//! From the paper (Section 4): "Initially, Batch(0) consists of a set of the
//! arrived tasks. At the end of each scheduling phase j, Batch(j+1) is formed
//! by removing, from Batch(j), the scheduled tasks and tasks whose deadlines
//! are missed, and by adding the set of tasks that arrived during scheduling
//! phase j."

use std::collections::HashSet;

use paragon_des::{Duration, Time};

use crate::affinity::AffinitySet;
use crate::ids::TaskId;
use crate::task::Task;

/// The set of tasks a scheduling phase works on.
///
/// A batch preserves insertion order (which downstream heuristics may
/// re-sort) and enforces id uniqueness. The driver keeps one batch for the
/// whole run, reserved for all of the run's tasks: each phase removes its
/// scheduled and expired tasks in place, [`Batch::advance_phase`] bumps the
/// phase, and arrivals are pushed onto the survivors.
///
/// Two columns are kept in step with the tasks, so that every batch-wide
/// threshold reads one dense column instead of the tasks:
///
/// * the expiry instant `e = d − p + 1 µs` of each task
///   ([`Batch::expiry`]), the first instant at which it can no longer meet
///   its deadline. It serves the expiry drop, `Min_Slack`, the driver's
///   mid-phase lapsed count and its fast-forward target;
/// * the class of each task ([`Batch::class_ids`]): the index of its
///   affinity set among the distinct sets pushed so far
///   ([`Batch::affinity_classes`]), interned once at push. The search's
///   viability screen takes one threshold per class instead of one test
///   per task.
///
/// # Example
///
/// ```
/// use paragon_des::{Duration, Time};
/// use rt_task::{Batch, Task, TaskId};
///
/// let mk = |id: u64, d_ms: u64| {
///     Task::builder(TaskId::new(id))
///         .processing_time(Duration::from_millis(1))
///         .deadline(Time::from_millis(d_ms))
///         .build()
/// };
/// let mut batch = Batch::new(0);
/// batch.push(mk(0, 2));
/// batch.push(mk(1, 50));
/// // task 0 must start by 1ms, so it is expired from 1ms + 1µs on
/// assert_eq!(batch.expiry()[0], Time::from_micros(1_001));
/// // at t=5ms task 0 can no longer meet its 2ms deadline
/// let mut dropped = Vec::new();
/// let n = batch.drop_expired(Time::from_millis(5), |t| dropped.push(t.id()));
/// assert_eq!(n, 1);
/// assert_eq!(dropped, [TaskId::new(0)]);
/// assert_eq!(batch.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Batch {
    phase: u64,
    tasks: Vec<Task>,
    /// Each task's expiry instant, in step with `tasks`.
    expiry: Vec<Time>,
    /// Each task's index into `classes`, in step with `tasks`.
    class: Vec<u32>,
    /// The distinct affinity sets pushed so far, in first-push order. A
    /// class outlives its last task, so ids stay stable for the run.
    classes: Vec<AffinitySet>,
    ids: HashSet<TaskId>,
    /// Scratch for [`Batch::drop_expired`]: the positions it removes.
    expired: Vec<usize>,
}

impl Batch {
    /// Creates an empty batch for scheduling phase `phase`.
    #[must_use]
    pub fn new(phase: u64) -> Self {
        Self::with_capacity(phase, 0)
    }

    /// Creates an empty batch for scheduling phase `phase` with room for
    /// `capacity` tasks, so that it never grows while it holds at most that
    /// many. A run's batch never holds more than the run's tasks: each one
    /// is in the batch, on a worker, or gone.
    #[must_use]
    pub fn with_capacity(phase: u64, capacity: usize) -> Self {
        Batch {
            phase,
            tasks: Vec::with_capacity(capacity),
            expiry: Vec::with_capacity(capacity),
            class: Vec::with_capacity(capacity),
            classes: Vec::new(),
            ids: HashSet::with_capacity(capacity),
            expired: Vec::with_capacity(capacity),
        }
    }

    /// The phase index `j` this batch feeds.
    #[must_use]
    pub fn phase(&self) -> u64 {
        self.phase
    }

    /// Adds one task, with its expiry instant and its affinity class.
    ///
    /// # Panics
    ///
    /// Panics if a task with the same id is already in the batch: batches are
    /// sets, and a duplicate means the driver double-enqueued an arrival.
    pub fn push(&mut self, task: Task) {
        assert!(
            self.ids.insert(task.id()),
            "duplicate task {} pushed into batch {}",
            task.id(),
            self.phase
        );
        self.expiry.push(expiry_of(&task));
        let class = self.intern(task.affinity());
        self.class.push(class);
        self.tasks.push(task);
    }

    /// The class id of `affinity`: its index in `classes`, appended on first
    /// sight. A linear scan: a run has few distinct sets (one per
    /// sub-database in the paper's workload), and a scan allocates nothing.
    fn intern(&mut self, affinity: &AffinitySet) -> u32 {
        let class = match self.classes.iter().position(|a| a == affinity) {
            Some(class) => class,
            None => {
                self.classes.push(affinity.clone());
                self.classes.len() - 1
            }
        };
        u32::try_from(class).expect("affinity classes fit in u32")
    }

    /// Number of tasks in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The tasks, in insertion order.
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Each task's expiry instant `e = d − p + 1 µs`, in batch order: the
    /// first instant `now` with `now + p > d`, or [`Time::ZERO`] when
    /// `p > d`. A task is expired at `now` exactly when `e <= now`
    /// ([`Task::is_expired`]), and its slack is `e − 1 µs − now`, clamped at
    /// zero ([`Task::slack`]).
    #[must_use]
    pub fn expiry(&self) -> &[Time] {
        &self.expiry
    }

    /// Each task's class, in batch order: the index of its affinity set in
    /// [`Batch::affinity_classes`].
    #[must_use]
    pub fn class_ids(&self) -> &[u32] {
        &self.class
    }

    /// The distinct affinity sets of every task pushed so far, indexed by
    /// class id. Classes are never removed, so a class id stays valid for
    /// the batch's whole life.
    #[must_use]
    pub fn affinity_classes(&self) -> &[AffinitySet] {
        &self.classes
    }

    /// Iterates over the tasks.
    pub fn iter(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter()
    }

    /// Removes every task whose deadline can no longer be met at `now`
    /// (the paper's `p_i + t_c > d_i` filter, read as `e <= now` off the
    /// expiry column) in place, handing each one to `on_drop` in batch
    /// order before it goes. Returns how many were dropped.
    pub fn drop_expired(&mut self, now: Time, mut on_drop: impl FnMut(&Task)) -> usize {
        let mut expired = std::mem::take(&mut self.expired);
        expired.clear();
        let positions = self.expiry.iter().enumerate();
        expired.extend(positions.filter(|&(_, &e)| e <= now).map(|(i, _)| i));
        for &i in &expired {
            on_drop(&self.tasks[i]);
        }
        self.remove_positions(&expired);
        let dropped = expired.len();
        self.expired = expired;
        dropped
    }

    /// Removes the tasks at `positions` (the tasks scheduled during this
    /// phase) in one pass, keeping the survivors in batch order.
    ///
    /// # Panics
    ///
    /// Panics unless `positions` is strictly increasing and every position
    /// lies inside the batch.
    pub fn remove_sorted(&mut self, positions: &[usize]) {
        assert!(
            positions.windows(2).all(|w| w[0] < w[1])
                && positions.last().is_none_or(|&p| p < self.len()),
            "positions {positions:?} are not strictly increasing batch positions"
        );
        self.remove_positions(positions);
    }

    /// Removes the tasks at the strictly increasing in-batch `positions`,
    /// with their ids and column entries, keeping the survivors in order.
    /// The tasks move in one pass; each column moves block by block, one
    /// copy per run of survivors between two removed positions.
    fn remove_positions(&mut self, positions: &[usize]) {
        if positions.is_empty() {
            return;
        }
        for &i in positions {
            self.ids.remove(&self.tasks[i].id());
        }
        let mut next = positions.iter().copied().peekable();
        let mut i = 0;
        self.tasks.retain(|_| {
            let hit = next.next_if_eq(&i).is_some();
            i += 1;
            !hit
        });
        remove_from_column(&mut self.expiry, positions);
        remove_from_column(&mut self.class, positions);
    }

    /// Turns this batch into `Batch(j+1)` in place: the survivors stay in
    /// order, and arrivals and orphans are pushed onto it afterwards.
    ///
    /// Scheduled and expired tasks leave through [`Batch::remove_sorted`]
    /// and [`Batch::drop_expired`].
    pub fn advance_phase(&mut self) {
        self.phase += 1;
    }

    /// The minimum slack over tasks in the batch at `now` — the `Min_Slack`
    /// term of the paper's scheduling-time criterion (Figure 3), taken from
    /// the least expiry instant. `None` when the batch is empty.
    #[must_use]
    pub fn min_slack(&self, now: Time) -> Option<Duration> {
        let e = self.expiry.iter().copied().min()?;
        Some(Time::from_micros(e.as_micros().saturating_sub(1)).saturating_since(now))
    }
}

/// Removes the entries at the strictly increasing in-range `positions` from
/// `column`: each run of survivors between two removed positions moves down
/// in one copy.
fn remove_from_column<T: Copy>(column: &mut Vec<T>, positions: &[usize]) {
    let len = column.len();
    for (removed, &p) in positions.iter().enumerate() {
        let end = positions.get(removed + 1).copied().unwrap_or(len);
        column.copy_within(p + 1..end, p - removed);
    }
    column.truncate(len - positions.len());
}

/// The first instant at which `t` is expired: one past its latest start
/// `d − p`, or zero when `p > d`, which is expired from the start.
fn expiry_of(t: &Task) -> Time {
    let latest_start = t
        .deadline()
        .as_micros()
        .checked_sub(t.processing_time().as_micros());
    latest_start.map_or(Time::ZERO, |s| Time::from_micros(s.saturating_add(1)))
}

/// A phase-0 batch of the tasks, pushed in order.
///
/// # Panics
///
/// Panics on a duplicate task id, like [`Batch::push`].
impl FromIterator<Task> for Batch {
    fn from_iter<I: IntoIterator<Item = Task>>(tasks: I) -> Self {
        let mut batch = Batch::new(0);
        for t in tasks {
            batch.push(t);
        }
        batch
    }
}

impl<'a> IntoIterator for &'a Batch {
    type Item = &'a Task;
    type IntoIter = std::slice::Iter<'a, Task>;

    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TaskId;

    fn mk(id: u64, p_ms: u64, d_ms: u64) -> Task {
        Task::builder(TaskId::new(id))
            .processing_time(Duration::from_millis(p_ms))
            .deadline(Time::from_millis(d_ms))
            .build()
    }

    fn ids(b: &Batch) -> Vec<u64> {
        b.iter().map(|t| t.id().as_u64()).collect()
    }

    #[test]
    fn push_and_query() {
        let mut b = Batch::new(0);
        assert!(b.is_empty());
        b.push(mk(0, 1, 10));
        b.push(mk(1, 2, 20));
        assert_eq!(b.len(), 2);
        assert_eq!(ids(&b), vec![0, 1]);
        assert_eq!(b.phase(), 0);
        assert_eq!(b.iter().count(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate task")]
    fn duplicate_push_panics() {
        let mut b = Batch::new(0);
        b.push(mk(0, 1, 10));
        b.push(mk(0, 1, 10));
    }

    #[test]
    fn drop_expired_filters_and_reports() {
        let mut b = Batch::new(3);
        b.push(mk(0, 5, 6)); // expired at t>=1ms+eps: 5+t_c > 6
        b.push(mk(1, 1, 100));
        let mut dropped = Vec::new();
        let n = b.drop_expired(Time::from_millis(2), |t| dropped.push(t.id()));
        assert_eq!(n, 1);
        assert_eq!(dropped, [TaskId::new(0)]);
        assert_eq!(b.len(), 1);
        assert_eq!(ids(&b), vec![1]);
        // dropped id can be reused afterwards (it is gone from the id set)
        b.push(mk(0, 1, 200));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn drop_expired_none_when_all_feasible() {
        let mut b = Batch::new(0);
        b.push(mk(0, 1, 100));
        let n = b.drop_expired(Time::ZERO, |t| panic!("{} is not expired", t.id()));
        assert_eq!(n, 0);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn remove_sorted_takes_out_positions() {
        let mut b = Batch::new(0);
        for i in 0..5 {
            b.push(mk(i, 1, 100));
        }
        b.remove_sorted(&[0, 2, 4]);
        assert_eq!(b.len(), 2);
        assert_eq!(ids(&b), vec![1, 3]);
        // removed ids can be reused afterwards (they are gone from the id set)
        b.push(mk(2, 1, 100));
        assert_eq!(ids(&b), vec![1, 3, 2]);
    }

    #[test]
    fn remove_sorted_of_nothing_is_a_no_op() {
        let mut b = Batch::new(0);
        b.push(mk(0, 1, 100));
        b.remove_sorted(&[]);
        assert_eq!(ids(&b), vec![0]);
    }

    #[test]
    #[should_panic(expected = "not strictly increasing")]
    fn remove_sorted_rejects_positions_outside_the_batch() {
        let mut b = Batch::new(0);
        b.push(mk(0, 1, 100));
        b.remove_sorted(&[0, 1]);
    }

    #[test]
    #[should_panic(expected = "not strictly increasing")]
    fn remove_sorted_rejects_unsorted_positions() {
        let mut b = Batch::new(0);
        for i in 0..3 {
            b.push(mk(i, 1, 100));
        }
        b.remove_sorted(&[2, 0]);
    }

    #[test]
    fn advance_phase_keeps_survivors_for_the_arrivals() {
        let mut b = Batch::new(7);
        b.push(mk(0, 1, 100));
        b.advance_phase();
        b.push(mk(1, 1, 50));
        assert_eq!(b.phase(), 8);
        assert_eq!(b.len(), 2);
        assert_eq!(ids(&b), vec![0, 1]);
    }

    #[test]
    fn min_slack_tracks_the_tightest_task() {
        let mut b = Batch::new(0);
        assert_eq!(b.min_slack(Time::ZERO), None);
        b.push(mk(0, 2, 10)); // slack 8ms at t=0
        b.push(mk(1, 1, 5)); // slack 4ms at t=0
        assert_eq!(b.min_slack(Time::ZERO), Some(Duration::from_millis(4)));
        assert_eq!(b.min_slack(Time::from_millis(4)), Some(Duration::ZERO));
    }

    #[test]
    fn affinity_classes_are_interned_once_and_outlive_their_tasks() {
        use crate::{AffinitySet, ProcessorId};
        let on = |id: u64, procs: &[usize]| {
            Task::builder(TaskId::new(id))
                .processing_time(Duration::from_millis(1))
                .deadline(Time::from_millis(100))
                .affinity(procs.iter().map(|&k| ProcessorId::new(k)).collect())
                .build()
        };
        let mut b = Batch::with_capacity(0, 8);
        for (id, procs) in [(0, &[1, 2][..]), (1, &[]), (2, &[2, 1]), (3, &[1])] {
            b.push(on(id, procs));
        }
        assert_eq!(b.class_ids(), [0, 1, 0, 2]);
        let set = |procs: &[usize]| -> AffinitySet {
            procs.iter().map(|&k| ProcessorId::new(k)).collect()
        };
        assert_eq!(b.affinity_classes(), [set(&[1, 2]), set(&[]), set(&[1])]);
        // the columns move with their tasks, and a class keeps its id
        b.remove_sorted(&[0, 2]);
        assert_eq!(ids(&b), vec![1, 3]);
        assert_eq!(b.class_ids(), [1, 2]);
        b.push(on(4, &[2, 1]));
        assert_eq!(b.class_ids(), [1, 2, 0]);
        assert_eq!(b.affinity_classes().len(), 3);
    }

    #[test]
    fn into_iterator_yields_tasks() {
        let mut b = Batch::new(0);
        b.push(mk(0, 1, 10));
        b.push(mk(1, 1, 10));
        let ids: Vec<u64> = (&b).into_iter().map(|t| t.id().as_u64()).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
