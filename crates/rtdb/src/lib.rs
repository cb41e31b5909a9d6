//! Distributed real-time database substrate — the application of the
//! paper's Section 5.
//!
//! A global relational database of `r` tuples is divided into `d`
//! sub-databases; each sub-database resides in the local memory of one or
//! more processors depending on the replication rate. Transactions are
//! read-only: executing one means iterating a checking process over the
//! tuples of its target sub-database and counting partial matches against
//! the transaction's attribute-value predicates.
//!
//! The pieces:
//!
//! * [`Schema`] — attribute count and per-attribute value domains; domains
//!   are **disjoint across sub-databases**, so any value identifies its
//!   sub-database (the paper's simplifying assumption),
//! * [`SubDatabase`]/[`GlobalDatabase`] — the tuple store, its partitioning
//!   and the **global key index** the host maintains to estimate costs,
//! * [`Transaction`] — a set of attribute-value predicates,
//! * [`CostModel`] — the paper's `Execution_Cost(q) = k × (frequency of the
//!   matching key value if the key is given, else r/d)` estimator, plus the
//!   actual execution that the worst-case estimate provably bounds.
//!
//! # Example
//!
//! ```
//! use paragon_des::SimRng;
//! use rtdb::{CostModel, GlobalDatabase, Schema, Transaction};
//!
//! let schema = Schema::new(10, 100);
//! let mut rng = SimRng::seed_from(1);
//! let db = GlobalDatabase::generate(&schema, 4, 500, &mut rng);
//! let txn = Transaction::new(0, vec![(0, schema.domain_base(2, 0) + 7)]);
//! assert_eq!(db.target_subdb(&txn), 2);
//! let cost = CostModel::default();
//! // keyed: estimate = k * frequency of that key value
//! let est = cost.estimate(&db, &txn);
//! let (checked, _matches) = db.execute(&txn);
//! assert!(cost.actual(checked) <= est);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod database;
mod schema;
mod transaction;

pub use cost::CostModel;
pub use database::{GlobalDatabase, SubDatabase, Tuple};
pub use schema::Schema;
pub use transaction::Transaction;
