//! Orderings: which task each level considers, which processor each level
//! serves, and how feasible successors are prioritized in the candidate list.

use paragon_des::Time;
use rt_task::Task;
use serde::{Deserialize, Serialize};

/// How the assignment-oriented representation fixes the task considered at
/// each tree level (paper: "at each level of G a task `T_i` is selected").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TaskOrder {
    /// Earliest deadline first — the classical real-time selection heuristic.
    #[default]
    EarliestDeadline,
    /// Smallest slack at a reference instant first.
    MinSlack,
    /// Batch (arrival) order, i.e. no heuristic.
    Arrival,
    /// Shortest processing time first.
    ShortestProcessing,
}

impl TaskOrder {
    /// Computes the level-to-task ordering for a batch at reference instant
    /// `now` (used by slack). Returns batch indices, one per level.
    #[must_use]
    pub fn order(&self, tasks: &[Task], now: Time) -> Vec<usize> {
        let mut idx = Vec::new();
        self.order_into(tasks, now, &mut idx);
        idx
    }

    /// Like [`TaskOrder::order`], but sorts into a caller-provided index
    /// buffer (cleared first) so the per-phase hot path can reuse one
    /// allocation across phases.
    ///
    /// Every sort key ends with the batch index `i`, so keys are unique and
    /// the unstable sort is deterministic — identical output to a stable
    /// sort, without the stable sort's temporary buffer. The search engine
    /// sorts its level order by the same keys, a prefix at a time.
    pub fn order_into(&self, tasks: &[Task], now: Time, out: &mut Vec<usize>) {
        out.clear();
        out.extend(0..tasks.len());
        out.sort_unstable_by_key(|&i| self.key(tasks, now, i));
    }

    /// The sort key of batch task `i` at reference instant `now`: the
    /// order's criterion in microseconds (zero for [`TaskOrder::Arrival`]),
    /// then `i` itself. The keys of a batch are unique, so any sort by them
    /// — or any sorted prefix of one — is the same order.
    #[inline]
    pub(crate) fn key(&self, tasks: &[Task], now: Time, i: usize) -> (u64, usize) {
        let t = &tasks[i];
        let criterion = match self {
            TaskOrder::EarliestDeadline => t.deadline().as_micros(),
            TaskOrder::MinSlack => t.slack(now).as_micros(),
            TaskOrder::Arrival => 0,
            TaskOrder::ShortestProcessing => t.processing_time().as_micros(),
        };
        (criterion, i)
    }
}

/// How the sequence-oriented representation fixes the processor served at
/// each tree level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ProcessorOrder {
    /// `P_{l mod m}` at level `l` — the round-robin order shown in the
    /// paper's Figure 1.
    #[default]
    RoundRobin,
    /// Fill one processor's whole sequence before moving to the next
    /// ("consecutive sub-problems that deal with one processor at a time"):
    /// the `n` levels are split into `m` contiguous blocks.
    FillFirst,
}

impl ProcessorOrder {
    /// The processor index served at tree level `level` (0-based), for `m`
    /// processors and `n` total tasks.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    #[must_use]
    pub fn processor_at(&self, level: usize, m: usize, n: usize) -> usize {
        assert!(m > 0, "no processors");
        match self {
            ProcessorOrder::RoundRobin => level % m,
            ProcessorOrder::FillFirst => {
                let block = n.div_ceil(m).max(1);
                (level / block).min(m - 1)
            }
        }
    }
}

/// How an expansion's feasible successors are ordered before being pushed on
/// the front of the candidate list (highest priority first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ChildOrder {
    /// Minimize the resulting partial-schedule execution time `CE` (the
    /// paper's load-balancing cost function, Section 4.4); ties broken by
    /// the candidate's own completion time.
    #[default]
    LoadBalance,
    /// Earliest candidate completion first (greedy, no global cost).
    EarliestCompletion,
    /// Earliest task deadline first (the EDF-style heuristic sequence-
    /// oriented schedulers use to pick the next task for a processor).
    EarliestDeadline,
    /// Generation order (no heuristic) — the ablation baseline.
    None,
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_des::Duration;
    use rt_task::TaskId;

    fn task(id: u64, p_us: u64, d_us: u64) -> Task {
        Task::builder(TaskId::new(id))
            .processing_time(Duration::from_micros(p_us))
            .deadline(Time::from_micros(d_us))
            .build()
    }

    #[test]
    fn edf_orders_by_deadline() {
        let tasks = vec![task(0, 10, 300), task(1, 10, 100), task(2, 10, 200)];
        let order = TaskOrder::EarliestDeadline.order(&tasks, Time::ZERO);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn min_slack_accounts_for_processing_time() {
        // d=300 p=250 -> slack 50; d=100 p=10 -> slack 90
        let tasks = vec![task(0, 250, 300), task(1, 10, 100)];
        let order = TaskOrder::MinSlack.order(&tasks, Time::ZERO);
        assert_eq!(order, vec![0, 1]);
        // EDF would say the opposite
        assert_eq!(
            TaskOrder::EarliestDeadline.order(&tasks, Time::ZERO),
            vec![1, 0]
        );
    }

    #[test]
    fn arrival_and_spt_orders() {
        let tasks = vec![task(0, 30, 100), task(1, 10, 100), task(2, 20, 100)];
        assert_eq!(TaskOrder::Arrival.order(&tasks, Time::ZERO), vec![0, 1, 2]);
        assert_eq!(
            TaskOrder::ShortestProcessing.order(&tasks, Time::ZERO),
            vec![1, 2, 0]
        );
    }

    #[test]
    fn round_robin_processor_order() {
        let o = ProcessorOrder::RoundRobin;
        let got: Vec<usize> = (0..6).map(|l| o.processor_at(l, 3, 6)).collect();
        assert_eq!(got, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn fill_first_processor_order() {
        let o = ProcessorOrder::FillFirst;
        // n=6, m=3 -> blocks of 2
        let got: Vec<usize> = (0..6).map(|l| o.processor_at(l, 3, 6)).collect();
        assert_eq!(got, vec![0, 0, 1, 1, 2, 2]);
        // n=5, m=3 -> blocks of 2, last block short
        let got: Vec<usize> = (0..5).map(|l| o.processor_at(l, 3, 5)).collect();
        assert_eq!(got, vec![0, 0, 1, 1, 2]);
        // levels past n clamp to the last processor
        assert_eq!(o.processor_at(99, 3, 5), 2);
    }
}
