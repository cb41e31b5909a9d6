//! The search batches behind `BENCH_search.json` and the zero-allocation
//! fence.
//!
//! `rtsads-sim bench-snapshot` times its canonical points on these batches,
//! and `tests/zero_alloc.rs` runs the same batches with a counting
//! allocator, so the throughput baseline and the allocation fence measure
//! one workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use paragon_des::{Duration, Time};
use rt_task::Task;

/// A synthetic independent task batch for the search snapshot points:
/// uniform processing times with deadlines `10x` cost, one-third of the
/// tasks pinned to a single processor.
#[must_use]
pub fn synthetic_batch(n: usize, workers: usize) -> Vec<Task> {
    use rt_task::{AffinitySet, ProcessorId, TaskId};
    (0..n)
        .map(|i| {
            let p = Duration::from_micros(100 + (i as u64 % 7) * 50);
            let affinity = if i % 3 == 0 {
                AffinitySet::from_iter([ProcessorId::new(i % workers)])
            } else {
                AffinitySet::all(workers)
            };
            Task::builder(TaskId::new(i as u64))
                .processing_time(p)
                .deadline(Time::ZERO + p * 10)
                .affinity(affinity)
                .build()
        })
        .collect()
}

/// The canonical deep-dive batch: `n` identical, unconstrained tasks with
/// deadlines far beyond any completion, so the search expands root-to-leaf
/// without backtracking. Depth 64 on 2 workers is the tracked baseline
/// point for `BENCH_search.json` and the zero-allocation assertion.
#[must_use]
pub fn deep_dive_batch(n: usize) -> Vec<Task> {
    use rt_task::TaskId;
    (0..n as u64)
        .map(|i| {
            Task::builder(TaskId::new(i))
                .processing_time(Duration::from_micros(100))
                .deadline(Time::from_millis(100_000))
                .build()
        })
        .collect()
}

/// A backtrack-heavy batch: deadlines only 2× the processing cost, so most
/// placements fail the feasibility test once a processor carries any load
/// and the search backtracks and undoes constantly. Exercises the undo-log
/// and chain-walk buffers that the deep dive never touches.
#[must_use]
pub fn tight_batch(n: usize, workers: usize) -> Vec<Task> {
    use rt_task::TaskId;
    (0..n)
        .map(|i| {
            let p = Duration::from_micros(80 + (i as u64 % 5) * 40);
            Task::builder(TaskId::new(i as u64))
                .processing_time(p)
                .deadline(Time::ZERO + p * 2)
                .affinity(rt_task::AffinitySet::all(workers))
                .build()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_batch_shape() {
        let batch = synthetic_batch(30, 5);
        assert_eq!(batch.len(), 30);
        assert!(batch.iter().all(|t| !t.processing_time().is_zero()));
        let pinned = batch.iter().filter(|t| t.affinity().len() == 1).count();
        assert_eq!(pinned, 10);
    }
}
