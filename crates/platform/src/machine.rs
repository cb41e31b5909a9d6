//! The machine: all working processors plus delivery bookkeeping.

use paragon_des::{Duration, Time};
use rt_task::{CommModel, ProcessorId, ResourceEats, Task, TaskId};
use serde::{Deserialize, Serialize};

use crate::worker::{FailedWork, Worker};

/// Static machine parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of working processors `m` (the dedicated host is extra).
    pub workers: usize,
    /// The interconnect cost model: the paper's flat `c_ij ∈ {0, C}`, a 2D
    /// mesh, or a hierarchical node/rack topology (whose 1-node degenerate
    /// form is the flat model).
    pub comm: CommModel,
}

/// One task-to-processor dispatch: the unit a delivered schedule consists of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dispatch {
    /// The task to execute.
    pub task: Task,
    /// The worker it was assigned to.
    pub processor: ProcessorId,
}

/// What actually happened to one dispatched task.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletionRecord {
    /// The task's id.
    pub task: TaskId,
    /// The worker that executed it.
    pub processor: ProcessorId,
    /// When the schedule containing it was delivered.
    pub delivered: Time,
    /// When execution (including any communication delay) began.
    pub start: Time,
    /// When execution finished.
    pub completion: Time,
    /// The task's absolute deadline.
    pub deadline: Time,
    /// Whether `completion <= deadline`.
    pub met_deadline: bool,
    /// The service time charged (`p + c`).
    pub service: Duration,
}

/// The simulated distributed-memory machine.
///
/// See the [crate docs](crate) for the execution model and an example.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    workers: Vec<Worker>,
    completions: Vec<CompletionRecord>,
    resources: ResourceEats,
}

impl Machine {
    /// Builds an idle machine.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` is zero.
    #[must_use]
    pub fn new(config: MachineConfig) -> Self {
        assert!(config.workers > 0, "a machine needs at least one worker");
        Machine {
            workers: ProcessorId::all(config.workers).map(Worker::new).collect(),
            config,
            completions: Vec::new(),
            resources: ResourceEats::new(),
        }
    }

    /// Number of working processors.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The interconnect model.
    #[must_use]
    pub fn comm(&self) -> &CommModel {
        &self.config.comm
    }

    /// The cluster topology, when the interconnect is hierarchical.
    #[must_use]
    pub fn topology(&self) -> Option<&rt_task::TopologySpec> {
        self.config.comm.topology()
    }

    /// Read access to one worker.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn worker(&self, p: ProcessorId) -> &Worker {
        &self.workers[p.index()]
    }

    /// Iterates over all workers.
    pub fn iter_workers(&self) -> impl Iterator<Item = &Worker> {
        self.workers.iter()
    }

    /// Delivers a (partial) schedule at instant `at`: each dispatch is
    /// appended to its worker's FIFO queue in order, and exact start and
    /// completion times are computed immediately (valid because execution is
    /// non-preemptive FIFO and deliveries only append).
    ///
    /// Returns the completion records for exactly this delivery, in dispatch
    /// order. All records are also retained in [`Machine::completions`].
    pub fn deliver(&mut self, dispatches: Vec<Dispatch>, at: Time) -> Vec<CompletionRecord> {
        let mut new_records = Vec::with_capacity(dispatches.len());
        for Dispatch { task, processor } in dispatches {
            let service = self.config.comm.demand(&task, processor);
            // a task may not start before its resources are available
            let ready = at.max(self.resources.earliest_start(task.resources()));
            let start = self.workers[processor.index()].admit(&task, ready, service);
            let completion = start + service;
            self.resources.commit(task.resources(), completion);
            let record = CompletionRecord {
                task: task.id(),
                processor,
                delivered: at,
                start,
                completion,
                deadline: task.deadline(),
                met_deadline: task.meets_deadline(completion),
                service,
            };
            self.completions.push(record.clone());
            new_records.push(record);
        }
        new_records
    }

    /// Marks processor `p` down at instant `at`. Queued-but-unstarted work
    /// is orphaned back to the caller; the in-flight task (if any) either
    /// finishes (`keep_in_flight`) or is lost. The eagerly computed
    /// [`CompletionRecord`]s of every retracted slot are removed from
    /// [`Machine::completions`].
    ///
    /// Resource commits made for retracted work are *not* rolled back: a
    /// held resource-available time can only be conservative (later than
    /// necessary), which delays future tasks but never breaks the deadline
    /// guarantee for work that is re-scheduled.
    ///
    /// `at` may precede earlier deliveries' instants — the host discovers
    /// failures at phase boundaries — and the partition around `at` is
    /// still exact.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or already down.
    pub fn fail(&mut self, p: ProcessorId, at: Time, keep_in_flight: bool) -> FailedWork {
        let failed = self.workers[p.index()].fail(at, keep_in_flight);
        let mut retract: Vec<(TaskId, Time)> = failed
            .orphaned
            .iter()
            .map(|(t, start)| (t.id(), *start))
            .collect();
        if let Some((t, start)) = &failed.lost {
            retract.push((t.id(), *start));
        }
        if !retract.is_empty() {
            self.completions
                .retain(|r| !(r.processor == p && retract.contains(&(r.task, r.start))));
        }
        failed
    }

    /// Fails an entire node (shard fault domain) at instant `at`: every
    /// processor of node `n` that is still up goes down as if by
    /// [`Machine::fail`], and the collected failed work is returned in
    /// processor order. Processors already down are skipped — a node crash
    /// subsumes any prior per-processor failure inside it.
    ///
    /// # Panics
    ///
    /// Panics if the interconnect has no topology or `n` is not one of its
    /// nodes.
    pub fn fail_node(&mut self, n: usize, at: Time, keep_in_flight: bool) -> Vec<FailedWork> {
        let topo = *self
            .topology()
            .expect("fail_node requires a hierarchical topology");
        let (lo, hi) = topo.node_range(n);
        (lo..hi)
            .map(ProcessorId::new)
            .filter(|&p| !self.is_down(p))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|p| self.fail(p, at, keep_in_flight))
            .collect()
    }

    /// Brings a down processor back up at instant `at` (see
    /// [`Worker::recover`]).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or not down.
    pub fn recover(&mut self, p: ProcessorId, at: Time) {
        self.workers[p.index()].recover(at);
    }

    /// Whether processor `p` is currently down.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn is_down(&self, p: ProcessorId) -> bool {
        self.workers[p.index()].is_down()
    }

    /// The machine's resource earliest-available times (what the next
    /// scheduling phase should plan against).
    #[must_use]
    pub fn resource_eats(&self) -> &ResourceEats {
        &self.resources
    }

    /// The paper's `Load_k` for worker `p` at `now`.
    #[must_use]
    pub fn load(&self, p: ProcessorId, now: Time) -> Duration {
        self.workers[p.index()].load(now)
    }

    /// All worker loads at `now`, indexed by processor.
    #[must_use]
    pub fn loads(&self, now: Time) -> Vec<Duration> {
        self.workers.iter().map(|w| w.load(now)).collect()
    }

    /// `Min_Load` (Figure 3): the minimum waiting time among *available*
    /// working processors at `now`. Down processors are excluded — they are
    /// not candidates for placement, so their (unbounded) wait must not
    /// inflate the quantum. With every processor down this degenerates to
    /// zero, leaving the quantum at `Min_Slack`.
    #[must_use]
    pub fn min_load(&self, now: Time) -> Duration {
        self.workers
            .iter()
            .filter(|w| !w.is_down())
            .map(|w| w.load(now))
            .min()
            .unwrap_or(Duration::ZERO)
    }

    /// Every completion record so far, in delivery order.
    #[must_use]
    pub fn completions(&self) -> &[CompletionRecord] {
        &self.completions
    }

    /// Count of completions that met their deadline.
    #[must_use]
    pub fn deadline_hits(&self) -> usize {
        self.completions.iter().filter(|r| r.met_deadline).count()
    }

    /// Number of distinct workers that have executed at least one task —
    /// used to validate the paper's conjecture that sequence-oriented search
    /// loads only a fraction of the processors.
    #[must_use]
    pub fn workers_used(&self) -> usize {
        self.workers.iter().filter(|w| w.executed() > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_task::AffinitySet;

    fn machine(workers: usize, c_us: u64) -> Machine {
        Machine::new(MachineConfig {
            workers,
            comm: CommModel::constant(Duration::from_micros(c_us)),
        })
    }

    fn task(id: u64, p_us: u64, d_us: u64, affine: &[usize]) -> Task {
        Task::builder(TaskId::new(id))
            .processing_time(Duration::from_micros(p_us))
            .deadline(Time::from_micros(d_us))
            .affinity(
                affine
                    .iter()
                    .map(|&i| ProcessorId::new(i))
                    .collect::<AffinitySet>(),
            )
            .build()
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = machine(0, 0);
    }

    #[test]
    fn delivery_computes_exact_times() {
        let mut m = machine(2, 100);
        let recs = m.deliver(
            vec![
                Dispatch {
                    task: task(0, 1_000, 10_000, &[0]),
                    processor: ProcessorId::new(0),
                },
                Dispatch {
                    task: task(1, 1_000, 10_000, &[0]),
                    processor: ProcessorId::new(0),
                },
                Dispatch {
                    task: task(2, 1_000, 10_000, &[0]),
                    processor: ProcessorId::new(1),
                },
            ],
            Time::ZERO,
        );
        // P0: affine task then affine task, FIFO
        assert_eq!(recs[0].start, Time::ZERO);
        assert_eq!(recs[0].completion, Time::from_micros(1_000));
        assert_eq!(recs[1].start, Time::from_micros(1_000));
        assert_eq!(recs[1].completion, Time::from_micros(2_000));
        // P1: non-affine, pays C=100
        assert_eq!(recs[2].service, Duration::from_micros(1_100));
        assert_eq!(recs[2].completion, Time::from_micros(1_100));
        assert!(recs.iter().all(|r| r.met_deadline));
        assert_eq!(m.completions().len(), 3);
        assert_eq!(m.deadline_hits(), 3);
        assert_eq!(m.workers_used(), 2);
    }

    #[test]
    fn missed_deadline_is_recorded_not_dropped() {
        let mut m = machine(1, 0);
        let recs = m.deliver(
            vec![Dispatch {
                task: task(0, 5_000, 1_000, &[0]),
                processor: ProcessorId::new(0),
            }],
            Time::ZERO,
        );
        assert!(!recs[0].met_deadline);
        assert_eq!(m.deadline_hits(), 0);
    }

    #[test]
    fn loads_track_backlog_per_worker() {
        let mut m = machine(3, 0);
        m.deliver(
            vec![Dispatch {
                task: task(0, 4_000, 100_000, &[1]),
                processor: ProcessorId::new(1),
            }],
            Time::ZERO,
        );
        let now = Time::from_micros(1_000);
        assert_eq!(
            m.load(ProcessorId::new(1), now),
            Duration::from_micros(3_000)
        );
        assert_eq!(m.load(ProcessorId::new(0), now), Duration::ZERO);
        assert_eq!(
            m.loads(now),
            vec![Duration::ZERO, Duration::from_micros(3_000), Duration::ZERO]
        );
        assert_eq!(m.min_load(now), Duration::ZERO);
    }

    #[test]
    fn min_load_when_all_busy() {
        let mut m = machine(2, 0);
        m.deliver(
            vec![
                Dispatch {
                    task: task(0, 2_000, 100_000, &[0]),
                    processor: ProcessorId::new(0),
                },
                Dispatch {
                    task: task(1, 5_000, 100_000, &[1]),
                    processor: ProcessorId::new(1),
                },
            ],
            Time::ZERO,
        );
        assert_eq!(m.min_load(Time::ZERO), Duration::from_micros(2_000));
    }

    #[test]
    fn later_delivery_queues_behind_earlier() {
        let mut m = machine(1, 0);
        m.deliver(
            vec![Dispatch {
                task: task(0, 10_000, 100_000, &[0]),
                processor: ProcessorId::new(0),
            }],
            Time::ZERO,
        );
        let recs = m.deliver(
            vec![Dispatch {
                task: task(1, 1_000, 100_000, &[0]),
                processor: ProcessorId::new(0),
            }],
            Time::from_micros(2_000),
        );
        assert_eq!(recs[0].start, Time::from_micros(10_000));
        assert_eq!(recs[0].delivered, Time::from_micros(2_000));
    }

    #[test]
    fn resource_holds_serialize_across_processors() {
        use rt_task::ResourceRequest;
        let mut m = machine(2, 0);
        let writer =
            task(0, 5_000, 1_000_000, &[0]).with_resources(vec![ResourceRequest::exclusive(0)]);
        let reader =
            task(1, 1_000, 1_000_000, &[1]).with_resources(vec![ResourceRequest::shared(0)]);
        let recs = m.deliver(
            vec![
                Dispatch {
                    task: writer,
                    processor: ProcessorId::new(0),
                },
                Dispatch {
                    task: reader,
                    processor: ProcessorId::new(1),
                },
            ],
            Time::ZERO,
        );
        // the reader runs on a different (idle) processor but must still
        // wait for the exclusive writer
        assert_eq!(recs[0].completion, Time::from_micros(5_000));
        assert_eq!(recs[1].start, Time::from_micros(5_000));
        assert_eq!(recs[1].completion, Time::from_micros(6_000));
        assert_eq!(
            m.resource_eats()
                .earliest_start(&[ResourceRequest::exclusive(0)]),
            Time::from_micros(6_000),
            "a future writer waits for the reader too"
        );
    }

    #[test]
    fn shared_holds_overlap_across_processors() {
        use rt_task::ResourceRequest;
        let mut m = machine(2, 0);
        let mk_reader = |id: u64, p: usize| Dispatch {
            task: task(id, 2_000, 1_000_000, &[p]).with_resources(vec![ResourceRequest::shared(3)]),
            processor: ProcessorId::new(p),
        };
        let recs = m.deliver(vec![mk_reader(0, 0), mk_reader(1, 1)], Time::ZERO);
        // shared readers run concurrently
        assert_eq!(recs[0].start, Time::ZERO);
        assert_eq!(recs[1].start, Time::ZERO);
    }

    #[test]
    fn fail_retracts_records_and_orphans_queued_work() {
        let mut m = machine(2, 0);
        m.deliver(
            vec![
                Dispatch {
                    task: task(0, 2_000, 100_000, &[0]),
                    processor: ProcessorId::new(0),
                },
                Dispatch {
                    task: task(1, 2_000, 100_000, &[0]),
                    processor: ProcessorId::new(0),
                },
                Dispatch {
                    task: task(2, 2_000, 100_000, &[1]),
                    processor: ProcessorId::new(1),
                },
            ],
            Time::ZERO,
        );
        assert_eq!(m.completions().len(), 3);
        // P0 dies at 1ms: task 0 in flight (lost), task 1 unstarted (orphan)
        let failed = m.fail(ProcessorId::new(0), Time::from_micros(1_000), false);
        assert_eq!(failed.orphaned.len(), 1);
        assert_eq!(failed.orphaned[0].0.id(), TaskId::new(1));
        assert_eq!(failed.lost.as_ref().unwrap().0.id(), TaskId::new(0));
        assert!(m.is_down(ProcessorId::new(0)));
        // only the unaffected P1 record survives
        assert_eq!(m.completions().len(), 1);
        assert_eq!(m.completions()[0].task, TaskId::new(2));
        assert_eq!(m.workers_used(), 1);
        m.recover(ProcessorId::new(0), Time::from_micros(5_000));
        assert!(!m.is_down(ProcessorId::new(0)));
        // recovered worker accepts work again, not before the recovery
        let recs = m.deliver(
            vec![Dispatch {
                task: task(3, 1_000, 100_000, &[0]),
                processor: ProcessorId::new(0),
            }],
            Time::from_micros(2_000),
        );
        assert_eq!(recs[0].start, Time::from_micros(5_000));
    }

    #[test]
    fn min_load_skips_down_processors() {
        let mut m = machine(2, 0);
        m.deliver(
            vec![Dispatch {
                task: task(0, 5_000, 100_000, &[1]),
                processor: ProcessorId::new(1),
            }],
            Time::ZERO,
        );
        // P0 idle -> min load zero; once P0 is down, P1's backlog is the min
        assert_eq!(m.min_load(Time::ZERO), Duration::ZERO);
        let _ = m.fail(ProcessorId::new(0), Time::ZERO, false);
        assert_eq!(m.min_load(Time::ZERO), Duration::from_micros(5_000));
        let _ = m.fail(ProcessorId::new(1), Time::from_micros(1), false);
        assert_eq!(
            m.min_load(Time::ZERO),
            Duration::ZERO,
            "all-down degenerates to zero"
        );
    }

    #[test]
    fn fail_with_kept_in_flight_preserves_its_record() {
        let mut m = machine(1, 0);
        m.deliver(
            vec![
                Dispatch {
                    task: task(0, 4_000, 100_000, &[0]),
                    processor: ProcessorId::new(0),
                },
                Dispatch {
                    task: task(1, 4_000, 100_000, &[0]),
                    processor: ProcessorId::new(0),
                },
            ],
            Time::ZERO,
        );
        let failed = m.fail(ProcessorId::new(0), Time::from_micros(1_000), true);
        assert!(failed.lost.is_none());
        assert_eq!(failed.orphaned.len(), 1);
        assert_eq!(m.completions().len(), 1);
        assert_eq!(m.completions()[0].task, TaskId::new(0));
    }

    #[test]
    fn fail_node_downs_every_member_once() {
        use rt_task::TopologySpec;
        let mut m = Machine::new(MachineConfig {
            workers: 6,
            comm: CommModel::hierarchical(TopologySpec::new(6, 3, 1, 0, 100, 100)),
        });
        assert_eq!(m.topology().unwrap().nodes(), 3);
        m.deliver(
            vec![
                Dispatch {
                    task: task(0, 2_000, 100_000, &[2]),
                    processor: ProcessorId::new(2),
                },
                Dispatch {
                    task: task(1, 2_000, 100_000, &[3]),
                    processor: ProcessorId::new(3),
                },
            ],
            Time::ZERO,
        );
        // P2 dies alone first; the node-1 crash then subsumes it.
        let _ = m.fail(ProcessorId::new(2), Time::from_micros(500), false);
        let failed = m.fail_node(1, Time::from_micros(1_000), false);
        assert_eq!(failed.len(), 1, "only the still-up P3 fails");
        assert!(m.is_down(ProcessorId::new(2)) && m.is_down(ProcessorId::new(3)));
        assert!(!m.is_down(ProcessorId::new(0)) && !m.is_down(ProcessorId::new(4)));
        assert_eq!(m.completions().len(), 0, "both records retracted");
    }

    #[test]
    fn workers_used_counts_distinct() {
        let mut m = machine(4, 0);
        assert_eq!(m.workers_used(), 0);
        m.deliver(
            vec![
                Dispatch {
                    task: task(0, 1_000, 100_000, &[0]),
                    processor: ProcessorId::new(0),
                },
                Dispatch {
                    task: task(1, 1_000, 100_000, &[0]),
                    processor: ProcessorId::new(0),
                },
            ],
            Time::ZERO,
        );
        assert_eq!(m.workers_used(), 1);
        assert_eq!(m.worker(ProcessorId::new(0)).executed(), 2);
        assert_eq!(m.iter_workers().count(), 4);
    }
}
