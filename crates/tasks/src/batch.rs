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

/// Result of expiring tasks out of a batch: which tasks were dropped because
/// their deadline could no longer be met.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DropOutcome {
    /// Tasks removed by the filter, in batch order.
    pub dropped: Vec<Task>,
}

impl DropOutcome {
    /// Number of dropped tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.dropped.len()
    }

    /// Whether nothing was dropped.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dropped.is_empty()
    }
}

/// The set of tasks a scheduling phase works on.
///
/// A batch preserves insertion order (which downstream heuristics may
/// re-sort) and enforces id uniqueness.
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
/// let dropped = batch.drop_expired(Time::from_millis(5));
/// assert_eq!(dropped.len(), 1);
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

    /// Adds many tasks (same duplicate rule as [`Batch::push`]).
    pub fn extend_tasks<I: IntoIterator<Item = Task>>(&mut self, tasks: I) {
        for t in tasks {
            self.push(t);
        }
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

    /// Whether the batch contains a task with the given id.
    #[must_use]
    pub fn contains(&self, id: TaskId) -> bool {
        self.ids.contains(&id)
    }

    /// Removes every task whose deadline can no longer be met at `now`
    /// (the paper's `p_i + t_c > d_i` filter), returning the dropped tasks.
    pub fn drop_expired(&mut self, now: Time) -> DropOutcome {
        let mut dropped = Vec::new();
        self.tasks.retain(|t| {
            if t.is_expired(now) {
                dropped.push(t.clone());
                false
            } else {
                true
            }
        });
        for t in &dropped {
            self.ids.remove(&t.id());
        }
        DropOutcome { dropped }
    }

    /// Removes the tasks with the given ids (the tasks scheduled during this
    /// phase), returning how many were actually present.
    pub fn remove_scheduled(&mut self, scheduled: &HashSet<TaskId>) -> usize {
        let before = self.tasks.len();
        self.tasks.retain(|t| !scheduled.contains(&t.id()));
        for id in scheduled {
            self.ids.remove(id);
        }
        before - self.tasks.len()
    }

    /// Builds the next batch `Batch(j+1)`: this batch's unscheduled survivors
    /// plus the tasks that arrived during the phase. Consumes `self`.
    ///
    /// Expired-task filtering is the caller's job (it needs the drop list for
    /// metrics); see [`Batch::drop_expired`].
    #[must_use]
    pub fn into_next(self, arrivals: Vec<Task>) -> Batch {
        let mut next = Batch::new(self.phase + 1);
        next.extend_tasks(self.tasks);
        next.extend_tasks(arrivals);
        next
    }

    /// The minimum slack over tasks in the batch at `now` — the `Min_Slack`
    /// term of the paper's scheduling-time criterion (Figure 3). `None` when
    /// the batch is empty.
    #[must_use]
    pub fn min_slack(&self, now: Time) -> Option<Duration> {
        self.tasks.iter().map(|t| t.slack(now)).min()
    }
}

impl IntoIterator for Batch {
    type Item = Task;
    type IntoIter = std::vec::IntoIter<Task>;

    fn into_iter(self) -> Self::IntoIter {
        self.tasks.into_iter()
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

    #[test]
    fn push_and_query() {
        let mut b = Batch::new(0);
        assert!(b.is_empty());
        b.push(mk(0, 1, 10));
        b.push(mk(1, 2, 20));
        assert_eq!(b.len(), 2);
        assert!(b.contains(TaskId::new(0)));
        assert!(!b.contains(TaskId::new(5)));
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
        let out = b.drop_expired(Time::from_millis(2));
        assert_eq!(out.len(), 1);
        assert_eq!(out.dropped[0].id(), TaskId::new(0));
        assert!(!out.is_empty());
        assert_eq!(b.len(), 1);
        assert!(!b.contains(TaskId::new(0)));
        // dropped id can be reused afterwards (it is gone from the id set)
        b.push(mk(0, 1, 200));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn drop_expired_none_when_all_feasible() {
        let mut b = Batch::new(0);
        b.push(mk(0, 1, 100));
        let out = b.drop_expired(Time::ZERO);
        assert!(out.is_empty());
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn remove_scheduled_takes_out_ids() {
        let mut b = Batch::new(0);
        for i in 0..5 {
            b.push(mk(i, 1, 100));
        }
        let scheduled: HashSet<TaskId> = [0u64, 2, 4].into_iter().map(TaskId::new).collect();
        let removed = b.remove_scheduled(&scheduled);
        assert_eq!(removed, 3);
        assert_eq!(b.len(), 2);
        assert!(b.contains(TaskId::new(1)));
        assert!(b.contains(TaskId::new(3)));
    }

    #[test]
    fn remove_scheduled_ignores_absent_ids() {
        let mut b = Batch::new(0);
        b.push(mk(0, 1, 100));
        let scheduled: HashSet<TaskId> = [9u64].into_iter().map(TaskId::new).collect();
        assert_eq!(b.remove_scheduled(&scheduled), 0);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn into_next_merges_survivors_and_arrivals() {
        let mut b = Batch::new(7);
        b.push(mk(0, 1, 100));
        let next = b.into_next(vec![mk(1, 1, 50)]);
        assert_eq!(next.phase(), 8);
        assert_eq!(next.len(), 2);
        assert!(next.contains(TaskId::new(0)));
        assert!(next.contains(TaskId::new(1)));
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
        let owned: Vec<Task> = b.into_iter().collect();
        assert_eq!(owned.len(), 2);
    }
}
