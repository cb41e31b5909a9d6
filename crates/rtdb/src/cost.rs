//! The paper's transaction cost estimator.
//!
//! > `Execution_Cost(q) = k × [ Frequency_of_matching_key_values IF key ∈ F
//! > ELSE r/d ]`
//!
//! where `F` is the set of attributes the transaction predicates on and `k`
//! is the processing time of one checking iteration. The host evaluates this
//! from its global index *before* scheduling. Domains are disjoint across
//! sub-databases, so the bracketed factor is exactly the number of tuples an
//! execution checks, and the simulator charges the estimate as the task's
//! processing time.

use paragon_des::Duration;
use serde::{Deserialize, Serialize};

use crate::database::GlobalDatabase;
use crate::transaction::Transaction;

/// Prices transactions in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel {
    per_tuple: Duration,
}

impl CostModel {
    /// A model charging `per_tuple` (`k`) for each checking iteration.
    ///
    /// # Panics
    ///
    /// Panics if `per_tuple` is zero — a free checking iteration would make
    /// every transaction's processing time zero, which the task model
    /// rejects.
    #[must_use]
    pub fn new(per_tuple: Duration) -> Self {
        assert!(!per_tuple.is_zero(), "per-tuple cost must be non-zero");
        CostModel { per_tuple }
    }

    /// The per-iteration cost `k`.
    #[must_use]
    pub fn per_tuple(&self) -> Duration {
        self.per_tuple
    }

    /// The paper's estimate for `txn`, with a floor of one
    /// iteration (a keyed transaction whose key value has frequency zero
    /// still costs an index probe).
    #[must_use]
    pub fn estimate(&self, db: &GlobalDatabase, txn: &Transaction) -> Duration {
        let iterations = db.tuples_to_check(txn).max(1) as u64;
        self.per_tuple * iterations
    }
}

impl Default for CostModel {
    /// One microsecond per checking iteration — a full 1000-tuple
    /// sub-database scan costs 1 ms.
    fn default() -> Self {
        CostModel::new(Duration::from_micros(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use paragon_des::SimRng;

    fn db() -> GlobalDatabase {
        let mut rng = SimRng::seed_from(3);
        GlobalDatabase::generate(&Schema::new(4, 8), 3, 100, &mut rng)
    }

    #[test]
    fn keyed_estimate_uses_frequency() {
        let db = db();
        let cost = CostModel::new(Duration::from_micros(2));
        let base = db.schema().domain_base(0, Schema::KEY_ATTR);
        let key = (base..base + db.schema().domain_size())
            .find(|&k| db.global_key_frequency(k) > 0)
            .expect("100 tuples over 8 key values");
        let txn = Transaction::new(0, vec![(0, key)]);
        let freq = db.global_key_frequency(key) as u64;
        assert_eq!(cost.estimate(&db, &txn), Duration::from_micros(2) * freq);
    }

    #[test]
    fn unkeyed_estimate_prices_full_scan() {
        let db = db();
        let cost = CostModel::default();
        let probe = db.schema().domain_base(1, 2) + 1;
        let txn = Transaction::new(0, vec![(2, probe)]);
        assert_eq!(cost.estimate(&db, &txn), Duration::from_micros(100));
    }

    #[test]
    fn keyed_estimates_never_exceed_a_scan() {
        let db = db();
        let cost = CostModel::default();
        let scan = Duration::from_micros(100);
        let mut rng = SimRng::seed_from(11);
        for id in 0..200 {
            let s = rng.uniform_usize(0..db.partitions());
            let n_preds = rng.uniform_usize(1..db.schema().attributes());
            let mut attrs: Vec<usize> = (0..db.schema().attributes()).collect();
            rng.shuffle(&mut attrs);
            let preds: Vec<(usize, u64)> = attrs[..n_preds]
                .iter()
                .map(|&a| {
                    let base = db.schema().domain_base(s, a);
                    (a, rng.uniform_u64(base..base + db.schema().domain_size()))
                })
                .collect();
            let txn = Transaction::new(id, preds);
            let estimate = cost.estimate(&db, &txn);
            if txn.key_value().is_some() {
                assert!(estimate <= scan, "a key's tuples lie in one partition");
            } else {
                assert_eq!(estimate, scan);
            }
        }
    }

    #[test]
    fn zero_frequency_key_has_floor_cost() {
        let db = db();
        let cost = CostModel::default();
        // 8 key values per partition and 100 tuples: every value of the
        // generated partitions is likely present, so probe the first key
        // value of a partition that was never generated.
        let absent = db.schema().domain_base(db.partitions(), Schema::KEY_ATTR);
        assert_eq!(db.global_key_frequency(absent), 0);
        let txn = Transaction::new(0, vec![(0, absent)]);
        assert_eq!(cost.estimate(&db, &txn), Duration::from_micros(1));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_per_tuple_rejected() {
        let _ = CostModel::new(Duration::ZERO);
    }
}
