//! The distributed database substrate on its own: generate the paper's
//! partitioned relational store's global key index, and price keyed and
//! unkeyed read-only transactions from it the way the host does for the
//! scheduler.
//!
//! ```text
//! cargo run --release --example database_queries
//! ```

use rtsads_repro::db::{CostModel, GlobalDatabase, Schema, Transaction};
use rtsads_repro::des::{Duration, SimRng};
use rtsads_repro::workload::TransactionGenerator;

fn main() {
    // The paper's database: 10 sub-databases x 1000 records x 10 attributes,
    // indexed on attribute #1 (index 0 here), disjoint domains.
    let schema = Schema::new(10, 100);
    let mut rng = SimRng::seed_from(2026);
    let db = GlobalDatabase::generate(&schema, 10, 1_000, &mut rng);
    let cost = CostModel::new(Duration::from_micros(10));

    println!(
        "database: {} tuples in {} sub-databases, key domain {} values each",
        db.total_tuples(),
        db.partitions(),
        schema.domain_size()
    );

    // A keyed transaction: the global index prices it at k * frequency.
    let key = schema.domain_base(3, 0) + 42;
    let keyed = Transaction::new(0, vec![(0, key), (4, schema.domain_base(3, 4) + 7)]);
    println!(
        "keyed txn on sub-db {}: key {key} carried by {} tuples, estimate {}",
        db.target_subdb(&keyed),
        db.global_key_frequency(key),
        cost.estimate(&db, &keyed)
    );

    // An unkeyed transaction: priced at a full r/d partition scan.
    let unkeyed = Transaction::new(1, vec![(5, schema.domain_base(7, 5) + 42)]);
    let scan = cost.estimate(&db, &unkeyed);
    println!(
        "unkeyed txn on sub-db {}: scans {} tuples, estimate {scan}",
        db.target_subdb(&unkeyed),
        db.tuples_to_check(&unkeyed)
    );
    assert_eq!(scan, cost.per_tuple() * 1_000);

    // The generator's uniform mix, priced in bulk.
    let generator = TransactionGenerator::uniform_over(schema.attributes());
    let txns = generator.generate_many(1_000, &db, &mut rng);
    let keyed_count = txns.iter().filter(|t| t.key_value().is_some()).count();
    let total_est: Duration = txns.iter().map(|t| cost.estimate(&db, t)).sum();
    println!(
        "generated {} transactions: {keyed_count} keyed / {} unkeyed, total estimated work {total_est}",
        txns.len(),
        txns.len() - keyed_count
    );
    // A key value's tuples all lie in its one partition, so the index never
    // prices a keyed transaction above a scan.
    assert!(txns.iter().all(|t| cost.estimate(&db, t) <= scan));
    println!("verified: no keyed estimate exceeds a partition scan");
}
