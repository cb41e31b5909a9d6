//! Distributed real-time database substrate — the application of the
//! paper's Section 5.
//!
//! A global relational database of `r` tuples is divided into `d`
//! sub-databases; each sub-database resides in the local memory of one or
//! more processors depending on the replication rate. Transactions are
//! read-only lookups of attribute values. The scheduler sees a transaction
//! only through its cost estimate, which the host computes from its global
//! key index before scheduling, and the simulator charges that estimate as
//! the task's processing time. This crate therefore keeps what the
//! estimator reads — the schema, the partitioning and one count per key
//! value — and stores no tuples.
//!
//! The pieces:
//!
//! * [`Schema`] — attribute count and per-attribute value domains; domains
//!   are **disjoint across sub-databases**, so any value identifies its
//!   sub-database (the paper's simplifying assumption),
//! * [`GlobalDatabase`] — the partitioning and the host's **global key
//!   index**, counted from the paper's uniformly generated tuples,
//! * [`Transaction`] — a set of attribute-value predicates,
//! * [`CostModel`] — the paper's `Execution_Cost(q) = k × (frequency of the
//!   matching key value if the key is given, else r/d)` estimator. Under
//!   disjoint domains the bracketed factor is exactly the number of tuples
//!   an execution checks.
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
//! let cost = CostModel::default();
//! // keyed: k × the key value's count in the global index
//! let key = schema.domain_base(2, 0) + 7;
//! let keyed = Transaction::new(0, vec![(0, key)]);
//! assert_eq!(db.target_subdb(&keyed), 2);
//! let count = db.global_key_frequency(key) as u64;
//! assert_eq!(cost.estimate(&db, &keyed), cost.per_tuple() * count.max(1));
//! // unkeyed: k × r/d, a scan of the whole target partition
//! let unkeyed = Transaction::new(1, vec![(3, schema.domain_base(2, 3))]);
//! assert_eq!(cost.estimate(&db, &unkeyed), cost.per_tuple() * 500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod database;
mod schema;
mod transaction;

pub use cost::CostModel;
pub use database::GlobalDatabase;
pub use schema::Schema;
pub use transaction::Transaction;
