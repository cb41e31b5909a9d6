//! Read-only transactions: sets of attribute-value predicates.

use serde::{Deserialize, Serialize};

use crate::schema::Schema;

/// A read-only transaction `q`: "characterized by the attribute values that
/// the transaction aims to locate in the distributed database".
///
/// Predicates are `(attribute index, value)` pairs; a tuple matches when it
/// carries every predicated value. Because attribute domains are disjoint
/// across sub-databases, all of a well-formed transaction's values come from
/// a single sub-database — its *target*.
///
/// # Example
///
/// ```
/// use rtdb::{Schema, Transaction};
/// let schema = Schema::new(10, 100);
/// let txn = Transaction::new(7, vec![
///     (0, schema.domain_base(1, 0) + 5), // key predicate
///     (3, schema.domain_base(1, 3) + 9),
/// ]);
/// assert!(txn.key_value().is_some());
/// assert_eq!(txn.predicates().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    id: u64,
    predicates: Vec<(usize, u64)>,
}

impl Transaction {
    /// Creates a transaction from its predicates.
    ///
    /// # Panics
    ///
    /// Panics if `predicates` is empty or contains a duplicate attribute.
    #[must_use]
    pub fn new(id: u64, predicates: Vec<(usize, u64)>) -> Self {
        assert!(!predicates.is_empty(), "transaction needs predicates");
        let mut attrs: Vec<usize> = predicates.iter().map(|&(a, _)| a).collect();
        attrs.sort_unstable();
        attrs.dedup();
        assert_eq!(
            attrs.len(),
            predicates.len(),
            "transaction {id} has duplicate attribute predicates"
        );
        Transaction { id, predicates }
    }

    /// The transaction's identifier.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The attribute-value predicates.
    #[must_use]
    pub fn predicates(&self) -> &[(usize, u64)] {
        &self.predicates
    }

    /// The value predicated on the key attribute, if any — this is what
    /// makes the cheap index-estimated path possible.
    #[must_use]
    pub fn key_value(&self) -> Option<u64> {
        self.predicates
            .iter()
            .find(|&&(a, _)| a == Schema::KEY_ATTR)
            .map(|&(_, v)| v)
    }

    /// The sub-database this transaction targets, derived from its first
    /// predicate value.
    ///
    /// # Panics
    ///
    /// Panics (in debug spirit, via assert) if the predicates span multiple
    /// sub-databases — such a transaction matches nothing and indicates a
    /// generator bug.
    #[must_use]
    pub fn target_subdb(&self, schema: &Schema) -> usize {
        let target = schema
            .subdb_of_value(self.predicates[0].1)
            .expect("value maps to a sub-database");
        for &(attr, v) in &self.predicates {
            assert!(
                schema.value_in_domain(v, target, attr),
                "transaction {} predicate ({attr}, {v}) not in sub-database {target}'s domain",
                self.id
            );
        }
        target
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(4, 10)
    }

    #[test]
    fn key_value_detection() {
        let s = schema();
        let with_key = Transaction::new(0, vec![(0, s.domain_base(1, 0) + 3)]);
        assert_eq!(with_key.key_value(), Some(s.domain_base(1, 0) + 3));
        let without = Transaction::new(1, vec![(2, s.domain_base(1, 2) + 3)]);
        assert_eq!(without.key_value(), None);
    }

    #[test]
    fn target_subdb_derived_from_values() {
        let s = schema();
        let txn = Transaction::new(
            0,
            vec![(1, s.domain_base(2, 1) + 5), (3, s.domain_base(2, 3))],
        );
        assert_eq!(txn.target_subdb(&s), 2);
    }

    #[test]
    #[should_panic(expected = "not in sub-database")]
    fn cross_subdb_predicates_panic() {
        let s = schema();
        let txn = Transaction::new(0, vec![(0, s.domain_base(0, 0)), (1, s.domain_base(1, 1))]);
        let _ = txn.target_subdb(&s);
    }

    #[test]
    #[should_panic(expected = "needs predicates")]
    fn empty_predicates_rejected() {
        let _ = Transaction::new(0, vec![]);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_attribute_rejected() {
        let _ = Transaction::new(0, vec![(1, 10), (1, 11)]);
    }
}
