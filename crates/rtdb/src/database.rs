//! The global database as the host sees it: its partitioning and the global
//! key index.

use std::collections::HashMap;

use paragon_des::SimRng;
use serde::{Deserialize, Serialize};

use crate::schema::Schema;
use crate::transaction::Transaction;

/// The global database: `d` sub-databases of `r/d` tuples each, and the
/// host-side global key index — how many tuples carry each key value. That
/// is everything the cost estimator reads, so the tuples themselves are not
/// kept.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlobalDatabase {
    schema: Schema,
    partitions: usize,
    tuples_per_partition: usize,
    key_counts: HashMap<u64, usize>,
}

impl GlobalDatabase {
    /// Generates `d` partitions of `tuples_per` uniformly distributed tuples
    /// each ("a uniformly distributed item is generated for each
    /// attribute-value based on its domain") and keeps their key counts.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    #[must_use]
    pub fn generate(schema: &Schema, d: usize, tuples_per: usize, rng: &mut SimRng) -> Self {
        assert!(d > 0, "a database needs at least one partition");
        let mut key_counts = HashMap::new();
        // Every attribute value is still drawn, in (partition, tuple,
        // attribute) order: the key values sit between the others in the
        // stream, and a draw consumes a variable number of raw words
        // (rejection sampling), so skipping the non-key draws would change
        // every key count and with it every estimate, task and figure.
        for s in 0..d {
            for _ in 0..tuples_per {
                for a in 0..schema.attributes() {
                    let base = schema.domain_base(s, a);
                    let value = rng.uniform_u64(base..base + schema.domain_size());
                    if a == Schema::KEY_ATTR {
                        *key_counts.entry(value).or_insert(0) += 1;
                    }
                }
            }
        }
        GlobalDatabase {
            schema: *schema,
            partitions: d,
            tuples_per_partition: tuples_per,
            key_counts,
        }
    }

    /// The schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of partitions `d`.
    #[must_use]
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Total tuple count `r`.
    #[must_use]
    pub fn total_tuples(&self) -> usize {
        self.partitions * self.tuples_per_partition
    }

    /// The partition `txn` targets.
    #[must_use]
    pub fn target_subdb(&self, txn: &Transaction) -> usize {
        txn.target_subdb(&self.schema)
    }

    /// The host's global index: how many tuples (database-wide) carry key
    /// value `key`. This is what prices keyed transactions without touching
    /// the partitions.
    #[must_use]
    pub fn global_key_frequency(&self, key: u64) -> usize {
        self.key_counts.get(&key).copied().unwrap_or(0)
    }

    /// Number of tuples a worker checks to execute `txn` (the bracketed
    /// factor of the paper's `Execution_Cost`): the key value's count when
    /// the key is given, else a whole partition, `r/d`. Domains are disjoint
    /// across sub-databases, so a key's count is exactly the tuples of its
    /// target partition that carry it.
    #[must_use]
    pub fn tuples_to_check(&self, txn: &Transaction) -> usize {
        match txn.key_value() {
            Some(key) => self.global_key_frequency(key),
            None => self.tuples_per_partition,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(3, 5)
    }

    fn generated() -> GlobalDatabase {
        let mut rng = SimRng::seed_from(7);
        GlobalDatabase::generate(&schema(), 4, 200, &mut rng)
    }

    #[test]
    fn key_counts_match_a_materialised_store() {
        let (schema, d, tuples_per) = (schema(), 4, 200);
        let mut rng = SimRng::seed_from(7);
        let db = GlobalDatabase::generate(&schema, d, tuples_per, &mut rng);
        assert_eq!(db.partitions(), d);
        assert_eq!(db.total_tuples(), d * tuples_per);

        // The tuples `generate` drew: the same stream, in the same
        // (partition, tuple, attribute) order.
        let mut replay = SimRng::seed_from(7);
        let store: Vec<Vec<Vec<u64>>> = (0..d)
            .map(|s| {
                (0..tuples_per)
                    .map(|_| {
                        (0..schema.attributes())
                            .map(|a| {
                                let base = schema.domain_base(s, a);
                                replay.uniform_u64(base..base + schema.domain_size())
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        assert_eq!(
            rng.uniform_u64(0..u64::MAX),
            replay.uniform_u64(0..u64::MAX),
            "generate consumes exactly the store's draws"
        );

        for (s, tuples) in store.iter().enumerate() {
            let base = schema.domain_base(s, Schema::KEY_ATTR);
            for key in base..base + schema.domain_size() {
                let recounted = tuples.iter().filter(|t| t[Schema::KEY_ATTR] == key).count();
                assert_eq!(db.global_key_frequency(key), recounted, "key {key}");
            }
            // Non-key values are drawn but never indexed.
            for t in tuples {
                for (a, &v) in t.iter().enumerate() {
                    assert!(schema.value_in_domain(v, s, a), "value {v} escaped domain");
                    if a != Schema::KEY_ATTR {
                        assert_eq!(db.global_key_frequency(v), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn absent_key_is_free() {
        let db = generated();
        let ghost = 999_999_999;
        assert_eq!(db.global_key_frequency(ghost), 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let mut r1 = SimRng::seed_from(5);
        let mut r2 = SimRng::seed_from(5);
        let a = GlobalDatabase::generate(&schema(), 2, 50, &mut r1);
        let b = GlobalDatabase::generate(&schema(), 2, 50, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn empty_database_rejected() {
        let _ = GlobalDatabase::generate(&schema(), 0, 10, &mut SimRng::seed_from(1));
    }
}
