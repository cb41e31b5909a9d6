//! Property tests of the machine/task substrate: FIFO execution exactness,
//! load accounting, batch algebra and affinity-set laws.

use proptest::prelude::*;

use rtsads_repro::des::{Duration, Time};
use rtsads_repro::platform::{Dispatch, Machine, MachineConfig};
use rtsads_repro::task::{AffinitySet, Batch, CommModel, ProcessorId, Task, TaskId};

fn mk_task(id: u64, p_us: u64, d_us: u64, workers: usize, mask: u8) -> Task {
    Task::builder(TaskId::new(id))
        .processing_time(Duration::from_micros(p_us))
        .deadline(Time::from_micros(d_us))
        .affinity(
            (0..workers)
                .filter(|k| mask & (1 << (k % 8)) != 0)
                .map(ProcessorId::new)
                .collect::<AffinitySet>(),
        )
        .build()
}

/// The batch's columns against a recomputation from each survivor's
/// `Task`, with `Task::is_expired` and `Task::slack` as the reference
/// semantics: the expiry instant `d − p + 1 µs` (0 when `p > d`) is the
/// first instant at which the task is expired, the class names the task's
/// own affinity set among distinct sets, and `Min_Slack` is the least
/// slack at `now`.
fn columns_match(batch: &Batch, now: Time) -> Result<(), TestCaseError> {
    prop_assert_eq!(batch.expiry().len(), batch.len());
    prop_assert_eq!(batch.class_ids().len(), batch.len());
    let classes = batch.affinity_classes();
    for ((t, &e), &class) in batch.iter().zip(batch.expiry()).zip(batch.class_ids()) {
        let (d, p) = (t.deadline().as_micros(), t.processing_time().as_micros());
        let want = if p > d { 0 } else { d - p + 1 };
        prop_assert_eq!(e, Time::from_micros(want));
        prop_assert!(t.is_expired(e));
        if let Some(before) = e.as_micros().checked_sub(1) {
            prop_assert!(!t.is_expired(Time::from_micros(before)));
        }
        prop_assert_eq!(&classes[class as usize], t.affinity());
    }
    for (i, a) in classes.iter().enumerate() {
        prop_assert!(!classes[..i].contains(a), "class {} is interned twice", i);
    }
    prop_assert_eq!(
        batch.min_slack(now),
        batch.iter().map(|t| t.slack(now)).min()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FIFO exactness: per worker, deliveries execute back-to-back in
    /// order, with no gaps while work is queued and no overlap.
    #[test]
    fn fifo_execution_is_gapless_and_ordered(
        jobs in prop::collection::vec((1u64..1_000, 0usize..4, 0u8..=255), 1..40),
        comm_us in 0u64..500,
    ) {
        let workers = 4;
        let mut machine = Machine::new(MachineConfig {
            workers,
            comm: CommModel::constant(Duration::from_micros(comm_us)),
        });
        let dispatches: Vec<Dispatch> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(p_us, proc, mask))| Dispatch {
                task: mk_task(i as u64, p_us, 1_000_000_000, workers, mask),
                processor: ProcessorId::new(proc),
            })
            .collect();
        let records = machine.deliver(dispatches, Time::ZERO).to_vec();
        for w in 0..workers {
            let per_worker: Vec<_> = records
                .iter()
                .filter(|r| r.processor.index() == w)
                .collect();
            let mut cursor = Time::ZERO;
            for r in per_worker {
                prop_assert_eq!(r.start, cursor, "gap or overlap on P{}", w);
                cursor = r.completion;
            }
            prop_assert_eq!(machine.worker(ProcessorId::new(w)).busy_until(), cursor);
        }
    }

    /// Load at any probe instant equals remaining queued work.
    #[test]
    fn load_equals_remaining_work(
        p_us in 1u64..10_000,
        count in 1usize..10,
        probe_us in 0u64..200_000,
    ) {
        let mut machine = Machine::new(MachineConfig {
            workers: 1,
            comm: CommModel::free(),
        });
        let dispatches: Vec<Dispatch> = (0..count)
            .map(|i| Dispatch {
                task: mk_task(i as u64, p_us, 1_000_000_000, 1, 0xFF),
                processor: ProcessorId::new(0),
            })
            .collect();
        machine.deliver(dispatches, Time::ZERO);
        let total = Duration::from_micros(p_us) * count as u64;
        let probe = Time::from_micros(probe_us);
        let expect = (Time::ZERO + total).saturating_since(probe);
        prop_assert_eq!(machine.load(ProcessorId::new(0), probe), expect);
    }

    /// Batch algebra: drop_expired + remove_sorted + advance_phase conserve
    /// tasks (no loss, no duplication), drop exactly the expired tasks, and
    /// keep the expiry and class columns in step with the tasks. Deadlines
    /// may precede `p`, and affinities take four distinct sets.
    #[test]
    fn batch_operations_conserve_tasks(
        specs in prop::collection::vec((1u64..500, 1u64..10_000, 0u8..4), 1..30),
        now_us in 0u64..8_000,
        take in 0usize..10,
    ) {
        let now = Time::from_micros(now_us);
        let mut batch = Batch::new(0);
        for (i, &(p_us, d_us, mask)) in specs.iter().enumerate() {
            batch.push(mk_task(i as u64, p_us, d_us, 2, mask));
        }
        columns_match(&batch, now)?;
        let before: Vec<Task> = batch.tasks().to_vec();
        let n = batch.len();
        let mut dropped = Vec::new();
        let n_dropped = batch.drop_expired(now, |t| dropped.push(t.clone()));
        prop_assert_eq!(n_dropped, dropped.len());
        // a task is dropped iff it is expired at `now`, in batch order
        let expired: Vec<Task> = before.into_iter().filter(|t| t.is_expired(now)).collect();
        prop_assert_eq!(&dropped, &expired);
        for t in &batch {
            prop_assert!(!t.is_expired(now));
        }
        columns_match(&batch, now)?;
        let scheduled: Vec<usize> = (0..batch.len().min(take)).collect();
        let removed = scheduled.len();
        batch.remove_sorted(&scheduled);
        columns_match(&batch, now)?;
        batch.advance_phase();
        prop_assert_eq!(dropped.len() + removed + batch.len(), n);
        prop_assert_eq!(batch.phase(), 1);
    }

    /// Affinity sets behave like sets: union/intersection laws against a
    /// reference model.
    #[test]
    fn affinity_set_laws(
        xs in prop::collection::vec(0usize..100, 0..20),
        ys in prop::collection::vec(0usize..100, 0..20),
    ) {
        use std::collections::BTreeSet;
        let a: AffinitySet = xs.iter().copied().map(ProcessorId::new).collect();
        let b: AffinitySet = ys.iter().copied().map(ProcessorId::new).collect();
        let ra: BTreeSet<usize> = xs.iter().copied().collect();
        let rb: BTreeSet<usize> = ys.iter().copied().collect();

        let inter: BTreeSet<usize> =
            a.intersection(&b).iter().map(ProcessorId::index).collect();
        let union: BTreeSet<usize> = a.union(&b).iter().map(ProcessorId::index).collect();
        prop_assert_eq!(&inter, &ra.intersection(&rb).copied().collect::<BTreeSet<_>>());
        prop_assert_eq!(&union, &ra.union(&rb).copied().collect::<BTreeSet<_>>());
        prop_assert_eq!(a.len(), ra.len());
        // insert/remove round trip
        let mut c = a.clone();
        for &x in &ys {
            c.insert(ProcessorId::new(x));
        }
        prop_assert_eq!(c, a.union(&b));
    }

    /// Slack and expiry agree: a task is expired exactly when its slack is
    /// zero and it cannot start immediately.
    #[test]
    fn slack_and_expiry_are_consistent(
        p_us in 1u64..10_000,
        d_us in 1u64..50_000,
        now_us in 0u64..60_000,
    ) {
        let d_us = d_us.max(p_us);
        let task = mk_task(0, p_us, d_us, 1, 0xFF);
        let now = Time::from_micros(now_us);
        let slack = task.slack(now);
        if !task.is_expired(now) {
            // not expired => starting now meets the deadline
            prop_assert!(task.meets_deadline(now + task.processing_time()));
            // slack is exactly the start margin
            prop_assert!(task.meets_deadline(now + slack + task.processing_time()));
        } else {
            prop_assert_eq!(slack, Duration::ZERO);
        }
    }
}
