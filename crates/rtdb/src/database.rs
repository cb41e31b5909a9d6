//! The tuple store: sub-databases, the global database and its key index.

use std::collections::HashMap;

use paragon_des::SimRng;
use serde::{Deserialize, Serialize};

use crate::schema::Schema;
use crate::transaction::Transaction;

/// One stored tuple: a value per attribute.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tuple {
    values: Vec<u64>,
}

impl Tuple {
    /// Wraps attribute values (indexed by attribute).
    #[must_use]
    pub fn new(values: Vec<u64>) -> Self {
        Tuple { values }
    }

    /// The attribute values.
    #[must_use]
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The key-attribute value.
    #[must_use]
    pub fn key(&self) -> u64 {
        self.values[Schema::KEY_ATTR]
    }
}

/// One partition of the global database, indexed on the key attribute.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubDatabase {
    id: usize,
    tuples: Vec<Tuple>,
    key_index: HashMap<u64, Vec<usize>>,
}

impl SubDatabase {
    /// Builds a sub-database (and its key index) from tuples.
    #[must_use]
    pub fn new(id: usize, tuples: Vec<Tuple>) -> Self {
        let mut key_index: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, t) in tuples.iter().enumerate() {
            key_index.entry(t.key()).or_default().push(i);
        }
        SubDatabase {
            id,
            tuples,
            key_index,
        }
    }

    /// This partition's index (its [`DataObjectId`] in placements).
    ///
    /// [`DataObjectId`]: https://docs.rs/paragon-platform
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of stored tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the partition is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// How many tuples carry the key value `key`.
    #[must_use]
    pub fn key_frequency(&self, key: u64) -> usize {
        self.key_index.get(&key).map_or(0, Vec::len)
    }

    /// Executes `txn` against this partition: returns
    /// `(tuples_checked, matches)`. With a key predicate only the indexed
    /// candidates are checked; otherwise the whole partition is scanned —
    /// exactly the work the paper's cost estimator prices.
    #[must_use]
    pub fn execute(&self, txn: &Transaction) -> (usize, usize) {
        match txn.key_value() {
            Some(key) => {
                let empty = Vec::new();
                let candidates = self.key_index.get(&key).unwrap_or(&empty);
                let matches = candidates
                    .iter()
                    .filter(|&&i| txn.matches(self.tuples[i].values()))
                    .count();
                (candidates.len(), matches)
            }
            None => {
                let matches = self
                    .tuples
                    .iter()
                    .filter(|t| txn.matches(t.values()))
                    .count();
                (self.tuples.len(), matches)
            }
        }
    }

    /// Iterates over the tuples.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }
}

/// The global database: `d` sub-databases plus the host-side global key
/// index used for cost estimation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlobalDatabase {
    schema: Schema,
    subdbs: Vec<SubDatabase>,
    global_key_index: HashMap<u64, usize>,
}

impl GlobalDatabase {
    /// Assembles a database from already-built partitions.
    ///
    /// # Panics
    ///
    /// Panics if `subdbs` is empty.
    #[must_use]
    pub fn new(schema: Schema, subdbs: Vec<SubDatabase>) -> Self {
        assert!(
            !subdbs.is_empty(),
            "a database needs at least one partition"
        );
        let mut global_key_index = HashMap::new();
        for sdb in &subdbs {
            for t in sdb.iter() {
                *global_key_index.entry(t.key()).or_insert(0) += 1;
            }
        }
        GlobalDatabase {
            schema,
            subdbs,
            global_key_index,
        }
    }

    /// Generates `d` partitions of `tuples_per` uniformly distributed tuples
    /// each ("a uniformly distributed item is generated for each
    /// attribute-value based on its domain").
    #[must_use]
    pub fn generate(schema: &Schema, d: usize, tuples_per: usize, rng: &mut SimRng) -> Self {
        let subdbs = (0..d)
            .map(|s| {
                let tuples = (0..tuples_per)
                    .map(|_| {
                        let values = (0..schema.attributes())
                            .map(|a| {
                                let base = schema.domain_base(s, a);
                                rng.uniform_u64(base..base + schema.domain_size())
                            })
                            .collect();
                        Tuple::new(values)
                    })
                    .collect();
                SubDatabase::new(s, tuples)
            })
            .collect();
        GlobalDatabase::new(*schema, subdbs)
    }

    /// The schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of partitions `d`.
    #[must_use]
    pub fn partitions(&self) -> usize {
        self.subdbs.len()
    }

    /// Total tuple count `r`.
    #[must_use]
    pub fn total_tuples(&self) -> usize {
        self.subdbs.iter().map(SubDatabase::len).sum()
    }

    /// A partition by index.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn subdb(&self, s: usize) -> &SubDatabase {
        &self.subdbs[s]
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
        self.global_key_index.get(&key).copied().unwrap_or(0)
    }

    /// Worst-case number of tuples a worker must check to execute `txn`
    /// (the bracketed factor of the paper's `Execution_Cost`).
    #[must_use]
    pub fn tuples_to_check(&self, txn: &Transaction) -> usize {
        match txn.key_value() {
            Some(key) => self.global_key_frequency(key),
            None => self.subdb(self.target_subdb(txn)).len(),
        }
    }

    /// Executes `txn` on its target partition, returning
    /// `(tuples_checked, matches)`.
    #[must_use]
    pub fn execute(&self, txn: &Transaction) -> (usize, usize) {
        self.subdb(self.target_subdb(txn)).execute(txn)
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
    fn generation_respects_domains() {
        let db = generated();
        assert_eq!(db.partitions(), 4);
        assert_eq!(db.total_tuples(), 800);
        for s in 0..4 {
            for t in db.subdb(s).iter() {
                for (a, &v) in t.values().iter().enumerate() {
                    assert!(
                        db.schema().value_in_domain(v, s, a),
                        "value {v} escaped domain"
                    );
                }
            }
        }
    }

    #[test]
    fn key_index_agrees_with_scan() {
        let db = generated();
        for s in 0..db.partitions() {
            let sdb = db.subdb(s);
            let base = db.schema().domain_base(s, Schema::KEY_ATTR);
            for key in base..base + db.schema().domain_size() {
                let by_scan = sdb.iter().filter(|t| t.key() == key).count();
                assert_eq!(sdb.key_frequency(key), by_scan);
                assert_eq!(db.global_key_frequency(key), by_scan, "domains disjoint");
            }
        }
    }

    #[test]
    fn keyed_execution_checks_only_candidates() {
        let db = generated();
        let s = 1;
        let key = db
            .subdb(s)
            .iter()
            .next()
            .expect("non-empty partition")
            .key();
        let txn = Transaction::new(0, vec![(0, key)]);
        let (checked, matches) = db.execute(&txn);
        assert_eq!(checked, db.subdb(s).key_frequency(key));
        assert_eq!(
            matches, checked,
            "key-only predicate matches all candidates"
        );
        assert!(checked < db.subdb(s).len(), "index avoids the full scan");
    }

    #[test]
    fn unkeyed_execution_scans_the_partition() {
        let db = generated();
        let s = 2;
        let probe = db.schema().domain_base(s, 1) + 3;
        let txn = Transaction::new(0, vec![(1, probe)]);
        let (checked, matches) = db.execute(&txn);
        assert_eq!(checked, db.subdb(s).len());
        let expected = db
            .subdb(s)
            .iter()
            .filter(|t| t.values()[1] == probe)
            .count();
        assert_eq!(matches, expected);
    }

    #[test]
    fn tuples_to_check_bounds_actual_work() {
        let db = generated();
        for s in 0..db.partitions() {
            let base0 = db.schema().domain_base(s, 0);
            let base1 = db.schema().domain_base(s, 1);
            for (id, preds) in [
                (0u64, vec![(0, base0 + 2)]),
                (1, vec![(1, base1 + 2)]),
                (2, vec![(0, base0 + 2), (1, base1 + 1)]),
            ] {
                let txn = Transaction::new(id, preds);
                let (checked, _) = db.execute(&txn);
                assert!(
                    checked <= db.tuples_to_check(&txn),
                    "estimate must bound the work"
                );
            }
        }
    }

    #[test]
    fn absent_key_is_free() {
        let db = generated();
        // a key value outside every domain
        let txn = Transaction::new(0, vec![(0, db.schema().domain_base(0, 0))]);
        // value may or may not exist; instead probe frequency-0 explicitly:
        let ghost = 999_999_999;
        assert_eq!(db.global_key_frequency(ghost), 0);
        let _ = txn; // silence unused in case
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
        let _ = GlobalDatabase::new(schema(), vec![]);
    }

    #[test]
    fn tuple_accessors() {
        let t = Tuple::new(vec![7, 8, 9]);
        assert_eq!(t.values(), &[7, 8, 9]);
        assert_eq!(t.key(), 7);
    }
}
