//! `Batch(j)` — the input to one scheduling phase.
//!
//! From the paper (Section 4): "Initially, Batch(0) consists of a set of the
//! arrived tasks. At the end of each scheduling phase j, Batch(j+1) is formed
//! by removing, from Batch(j), the scheduled tasks and tasks whose deadlines
//! are missed, and by adding the set of tasks that arrived during scheduling
//! phase j."

use std::collections::HashSet;

use paragon_des::{Duration, Time};

use crate::ids::TaskId;
use crate::task::Task;

/// The set of tasks a scheduling phase works on.
///
/// A batch preserves insertion order (which downstream heuristics may
/// re-sort) and enforces id uniqueness. The driver keeps one batch for the
/// whole run: each phase removes its scheduled and expired tasks in place,
/// [`Batch::advance_phase`] bumps the phase, and arrivals are pushed onto
/// the survivors.
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
    ids: HashSet<TaskId>,
}

impl Batch {
    /// Creates an empty batch for scheduling phase `phase`.
    #[must_use]
    pub fn new(phase: u64) -> Self {
        Batch {
            phase,
            tasks: Vec::new(),
            ids: HashSet::new(),
        }
    }

    /// The phase index `j` this batch feeds.
    #[must_use]
    pub fn phase(&self) -> u64 {
        self.phase
    }

    /// Adds one task.
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
        self.tasks.push(task);
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

    /// Iterates over the tasks.
    pub fn iter(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter()
    }

    /// Removes every task whose deadline can no longer be met at `now`
    /// (the paper's `p_i + t_c > d_i` filter) in place, handing each one to
    /// `on_drop` in batch order before it goes. Returns how many were
    /// dropped.
    pub fn drop_expired(&mut self, now: Time, mut on_drop: impl FnMut(&Task)) -> usize {
        let before = self.tasks.len();
        self.tasks.retain(|t| {
            let expired = t.is_expired(now);
            if expired {
                self.ids.remove(&t.id());
                on_drop(t);
            }
            !expired
        });
        before - self.tasks.len()
    }

    /// Removes the tasks at `positions` (the tasks scheduled during this
    /// phase) in one pass, keeping the survivors in batch order.
    ///
    /// # Panics
    ///
    /// Panics unless `positions` is strictly increasing and every position
    /// lies inside the batch.
    pub fn remove_sorted(&mut self, positions: &[usize]) {
        let mut next = positions.iter().copied().peekable();
        let mut i = 0;
        self.tasks.retain(|t| {
            let hit = next.next_if_eq(&i).is_some();
            if hit {
                self.ids.remove(&t.id());
            }
            i += 1;
            !hit
        });
        assert!(
            next.next().is_none(),
            "positions {positions:?} are not strictly increasing batch positions"
        );
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
    /// term of the paper's scheduling-time criterion (Figure 3). `None` when
    /// the batch is empty.
    #[must_use]
    pub fn min_slack(&self, now: Time) -> Option<Duration> {
        self.tasks.iter().map(|t| t.slack(now)).min()
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
    fn into_iterator_yields_tasks() {
        let mut b = Batch::new(0);
        b.push(mk(0, 1, 10));
        b.push(mk(1, 1, 10));
        let ids: Vec<u64> = (&b).into_iter().map(|t| t.id().as_u64()).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
