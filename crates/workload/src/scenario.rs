//! Declarative experiment scenarios (the paper's Section 5.1 parameter
//! sheet) and their materialization into schedulable tasks.

use paragon_des::{Duration, SimRng};
use paragon_platform::{DataObjectId, Placement};
use rt_task::{Task, TaskId};
use rtdb::{CostModel, GlobalDatabase, Schema, Transaction};
use serde::{Deserialize, Serialize};

use crate::arrivals::ArrivalProcess;
use crate::deadline::DeadlinePolicy;
use crate::replication::ReplicationStrategy;
use crate::txgen::TransactionGenerator;

/// A complete experiment parameter set.
///
/// Start from [`Scenario::paper_defaults`] and override what the experiment
/// sweeps. Building is deterministic in the seed passed to
/// [`Scenario::build`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Number of working processors `m`.
    pub workers: usize,
    /// Number of sub-databases `d`.
    pub partitions: usize,
    /// Tuples per sub-database (`r/d`).
    pub tuples_per_partition: usize,
    /// Attributes per tuple.
    pub attributes: usize,
    /// Values per attribute domain.
    pub domain_size: u64,
    /// Fraction of processors holding each sub-database.
    pub replication_rate: f64,
    /// How copies are spread.
    pub replication_strategy: ReplicationStrategy,
    /// Number of transactions.
    pub transactions: usize,
    /// Cost of one checking iteration (`k`).
    pub per_tuple_cost: Duration,
    /// The slack factor `SF` (the figures' "laxity").
    pub sf: f64,
    /// When the transactions arrive.
    pub arrivals: ArrivalProcess,
}

impl Scenario {
    /// The largest slack factor [`Scenario::validate`] accepts. The paper
    /// sweeps `SF` from 1 to 3; at 1,000 a deadline lies at most 10^4 times
    /// its transaction's estimated cost past its arrival, which keeps every
    /// deadline of a run far inside `Time`, where a factor such as 1e300
    /// overflows it.
    pub const MAX_SF: f64 = 1_000.0;

    /// The configuration of the paper's experiments: 10 sub-databases of
    /// 1000 records and 10 attributes, 1000 bursty transactions, key index
    /// on attribute 0, `SF = 1`, `R = 30%`, 10 workers.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Scenario {
            workers: 10,
            partitions: 10,
            tuples_per_partition: 1_000,
            attributes: 10,
            domain_size: 100,
            replication_rate: 0.3,
            replication_strategy: ReplicationStrategy::Strided,
            transactions: 1_000,
            per_tuple_cost: Duration::from_micros(10),
            sf: 1.0,
            arrivals: ArrivalProcess::burst_at_zero(),
        }
    }

    /// A scaled-down configuration for unit tests and doc examples
    /// (4 partitions × 200 tuples, 100 transactions, 4 workers).
    #[must_use]
    pub fn small() -> Self {
        Scenario {
            workers: 4,
            partitions: 4,
            tuples_per_partition: 200,
            attributes: 6,
            domain_size: 40,
            transactions: 100,
            ..Self::paper_defaults()
        }
    }

    /// Sets the worker count.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the replication rate.
    #[must_use]
    pub fn replication_rate(mut self, rate: f64) -> Self {
        self.replication_rate = rate;
        self
    }

    /// Sets the slack factor.
    #[must_use]
    pub fn sf(mut self, sf: f64) -> Self {
        self.sf = sf;
        self
    }

    /// Sets the transaction count.
    #[must_use]
    pub fn transactions(mut self, n: usize) -> Self {
        self.transactions = n;
        self
    }

    /// Sets the arrival process.
    #[must_use]
    pub fn arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Checks the parameter sheet for degenerate values that the
    /// constituent constructors would otherwise reject with internal
    /// assertion panics deep inside [`Scenario::build`]. Call this at the
    /// configuration boundary (CLI parsing, config-file loading) to turn
    /// those panics into actionable error messages.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first degenerate
    /// parameter found (zero workers, partitions, tuples, attributes,
    /// domain values, transactions, per-tuple cost or Poisson mean gap, a
    /// replication rate outside `(0, 1]`, or a slack factor outside
    /// `(0, MAX_SF]`).
    pub fn validate(&self) -> Result<(), String> {
        let positive: [(&str, u64); 7] = [
            ("workers", self.workers as u64),
            ("partitions", self.partitions as u64),
            ("tuples_per_partition", self.tuples_per_partition as u64),
            ("attributes", self.attributes as u64),
            ("domain_size", self.domain_size),
            ("transactions", self.transactions as u64),
            ("per_tuple_cost", self.per_tuple_cost.as_micros()),
        ];
        for (name, value) in positive {
            if value == 0 {
                return Err(format!("scenario parameter `{name}` must be positive"));
            }
        }
        if let ArrivalProcess::Poisson { mean_gap, .. } = self.arrivals {
            if mean_gap.is_zero() {
                return Err("scenario parameter `arrivals.mean_gap` must be positive".to_string());
            }
        }
        let rate = self.replication_rate;
        if !(rate > 0.0 && rate <= 1.0) {
            return Err(format!(
                "scenario parameter `replication_rate` must be positive and at most 1, got {rate}"
            ));
        }
        if !(self.sf > 0.0 && self.sf <= Self::MAX_SF) {
            return Err(format!(
                "scenario parameter `sf` must be positive and at most {}, got {}",
                Self::MAX_SF,
                self.sf
            ));
        }
        Ok(())
    }

    /// Materializes the scenario with the given seed: generates the
    /// database, places its replicas, draws the transactions and arrival
    /// times, estimates costs and assigns deadlines — yielding the tasks
    /// the scheduler consumes.
    ///
    /// # Panics
    ///
    /// Panics on the parameters [`Scenario::validate`] rejects, via the
    /// constituent constructors.
    #[must_use]
    pub fn build(&self, seed: u64) -> BuiltScenario {
        let root = SimRng::seed_from(seed);
        let schema = Schema::new(self.attributes, self.domain_size);
        let db = GlobalDatabase::generate(
            &schema,
            self.partitions,
            self.tuples_per_partition,
            &mut root.child(0),
        );
        let placement = self.replication_strategy.place(
            self.partitions,
            self.workers,
            self.replication_rate,
            &mut root.child(1),
        );
        let generator = TransactionGenerator::uniform_over(self.attributes);
        let transactions = generator.generate_many(self.transactions, &db, &mut root.child(2));
        let arrivals = self.arrivals.sample(self.transactions, &mut root.child(3));

        let cost = CostModel::new(self.per_tuple_cost);
        let deadline_policy = DeadlinePolicy::proportional(self.sf);
        let tasks = transactions
            .iter()
            .zip(&arrivals)
            .map(|(txn, &arrival)| {
                let estimate = cost.estimate(&db, txn);
                let target = db.target_subdb(txn);
                let affinity = placement.holders(DataObjectId::new(target)).clone();
                Task::builder(TaskId::new(txn.id()))
                    .processing_time(estimate)
                    .arrival(arrival)
                    .deadline(deadline_policy.deadline(arrival, estimate))
                    .affinity(affinity)
                    .build()
            })
            .collect();

        BuiltScenario {
            scenario: self.clone(),
            db,
            placement,
            transactions,
            tasks,
            cost,
        }
    }
}

/// A materialized scenario: everything a run needs.
#[derive(Debug, Clone)]
pub struct BuiltScenario {
    /// The parameters it was built from.
    pub scenario: Scenario,
    /// The generated database: its partitioning and the host's key index.
    pub db: GlobalDatabase,
    /// Which processor holds which sub-database.
    pub placement: Placement,
    /// The transaction stream, index-aligned with `tasks`.
    pub transactions: Vec<Transaction>,
    /// The schedulable tasks (processing time = worst-case estimate).
    pub tasks: Vec<Task>,
    /// The cost model used for the estimates.
    pub cost: CostModel,
}

impl BuiltScenario {
    /// The transaction a task id maps back to.
    #[must_use]
    pub fn transaction_of(&self, task: TaskId) -> Option<&Transaction> {
        self.transactions.iter().find(|t| t.id() == task.as_u64())
    }

    /// Mean task processing time — useful for calibration reports.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no tasks.
    #[must_use]
    pub fn mean_processing_time(&self) -> Duration {
        assert!(!self.tasks.is_empty(), "empty scenario");
        let total: Duration = self.tasks.iter().map(Task::processing_time).sum();
        total / self.tasks.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_des::Time;
    use rt_task::ProcessorId;

    #[test]
    fn paper_defaults_match_section_5_1() {
        let s = Scenario::paper_defaults();
        assert_eq!(s.partitions, 10);
        assert_eq!(s.tuples_per_partition, 1_000);
        assert_eq!(s.attributes, 10);
        assert_eq!(s.transactions, 1_000);
        assert_eq!(s.workers, 10);
        assert_eq!(s.sf, 1.0);
        assert!((s.replication_rate - 0.3).abs() < 1e-12);
    }

    #[test]
    fn build_produces_aligned_tasks_and_transactions() {
        let built = Scenario::small().build(1);
        assert_eq!(built.tasks.len(), built.transactions.len());
        for (task, txn) in built.tasks.iter().zip(&built.transactions) {
            assert_eq!(task.id().as_u64(), txn.id());
            // processing time equals the worst-case estimate
            assert_eq!(task.processing_time(), built.cost.estimate(&built.db, txn));
            // deadline = arrival + SF * 10 * estimate
            let expect = task.arrival() + task.processing_time().mul_f64(10.0 * built.scenario.sf);
            assert_eq!(task.deadline(), expect);
        }
    }

    #[test]
    fn affinity_matches_placement_of_target() {
        let built = Scenario::small().replication_rate(0.5).build(2);
        for (task, txn) in built.tasks.iter().zip(&built.transactions) {
            let target = built.db.target_subdb(txn);
            let holders = built.placement.holders(DataObjectId::new(target));
            assert_eq!(task.affinity(), holders);
            assert_eq!(task.affinity().len(), 2, "0.5 * 4 workers = 2 copies");
        }
    }

    #[test]
    fn burst_arrivals_all_at_zero() {
        let built = Scenario::small().build(3);
        assert!(built.tasks.iter().all(|t| t.arrival() == Time::ZERO));
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let a = Scenario::small().build(7);
        let b = Scenario::small().build(7);
        assert_eq!(a.tasks, b.tasks);
        assert_eq!(a.transactions, b.transactions);
        let c = Scenario::small().build(8);
        assert_ne!(a.tasks, c.tasks, "different seed, different workload");
    }

    #[test]
    fn keyed_transactions_are_cheaper_than_scans() {
        let built = Scenario::small().build(4);
        let scan_cost = built.scenario.per_tuple_cost * built.scenario.tuples_per_partition as u64;
        let mut keyed_cheaper = 0;
        for (task, txn) in built.tasks.iter().zip(&built.transactions) {
            if txn.key_value().is_some() {
                assert!(task.processing_time() <= scan_cost);
                if task.processing_time() < scan_cost {
                    keyed_cheaper += 1;
                }
            } else {
                assert_eq!(task.processing_time(), scan_cost);
            }
        }
        assert!(keyed_cheaper > 10, "index should usually help");
    }

    #[test]
    fn transaction_of_round_trips() {
        let built = Scenario::small().build(5);
        let t = &built.tasks[17];
        let txn = built.transaction_of(t.id()).expect("exists");
        assert_eq!(txn.id(), 17);
        assert!(built.transaction_of(TaskId::new(999_999)).is_none());
    }

    #[test]
    fn sf_scales_deadlines() {
        let tight = Scenario::small().sf(1.0).build(6);
        let loose = Scenario::small().sf(3.0).build(6);
        for (a, b) in tight.tasks.iter().zip(&loose.tasks) {
            assert_eq!(a.processing_time(), b.processing_time());
            assert!(b.deadline() > a.deadline());
        }
    }

    #[test]
    fn workers_setter_affects_affinity_universe() {
        let built = Scenario::small().workers(2).replication_rate(1.0).build(9);
        for task in &built.tasks {
            assert_eq!(task.affinity().len(), 2);
            assert!(task.affinity().contains(ProcessorId::new(0)));
            assert!(task.affinity().contains(ProcessorId::new(1)));
        }
    }

    #[test]
    fn mean_processing_time_is_positive() {
        let built = Scenario::small().build(10);
        assert!(!built.mean_processing_time().is_zero());
    }

    #[test]
    fn validate_accepts_paper_defaults_and_small() {
        assert_eq!(Scenario::paper_defaults().validate(), Ok(()));
        assert_eq!(Scenario::small().validate(), Ok(()));
    }

    #[test]
    fn validate_names_the_degenerate_parameter() {
        let cases: [(&str, Scenario); 13] = [
            ("workers", Scenario::small().workers(0)),
            ("transactions", Scenario::small().transactions(0)),
            ("replication_rate", Scenario::small().replication_rate(0.0)),
            ("replication_rate", Scenario::small().replication_rate(1.01)),
            (
                "replication_rate",
                Scenario::small().replication_rate(f64::NAN),
            ),
            ("sf", Scenario::small().sf(0.0)),
            ("sf", Scenario::small().sf(-1.0)),
            ("sf", Scenario::small().sf(f64::NAN)),
            ("sf", Scenario::small().sf(f64::INFINITY)),
            (
                "mean_gap",
                Scenario::small().arrivals(ArrivalProcess::Poisson {
                    start: Time::ZERO,
                    mean_gap: Duration::ZERO,
                }),
            ),
            (
                "per_tuple_cost",
                Scenario {
                    per_tuple_cost: Duration::ZERO,
                    ..Scenario::small()
                },
            ),
            (
                "partitions",
                Scenario {
                    partitions: 0,
                    ..Scenario::small()
                },
            ),
            (
                "domain_size",
                Scenario {
                    domain_size: 0,
                    ..Scenario::small()
                },
            ),
        ];
        for (name, scenario) in cases {
            let err = scenario.validate().expect_err(name);
            assert!(err.contains(name), "error {err:?} should name `{name}`");
            assert!(err.contains("must be positive"), "got {err:?}");
        }
    }
}
