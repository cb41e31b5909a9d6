//! Property tests of the workload/database substrate: key counts add up,
//! deadlines follow the paper's formula, placements respect rates.

use proptest::prelude::*;

use rtsads_repro::db::Schema;
use rtsads_repro::des::SimRng;
use rtsads_repro::platform::DataObjectId;
use rtsads_repro::workload::{ReplicationStrategy, Scenario};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The global key index counts every generated tuple exactly once, in
    /// its own partition: each partition's key counts sum to its tuple
    /// count, under arbitrary schema shapes.
    #[test]
    fn key_counts_sum_to_partition_sizes(
        partitions in 1usize..6,
        tuples in 20usize..200,
        attributes in 1usize..8,
        domain in 5u64..60,
        seed in 0u64..500,
    ) {
        let mut scenario = Scenario::small();
        scenario.partitions = partitions;
        scenario.tuples_per_partition = tuples;
        scenario.attributes = attributes;
        scenario.domain_size = domain;
        scenario.transactions = 50;
        scenario.workers = 3;
        let built = scenario.build(seed);
        let schema = built.db.schema();
        for s in 0..partitions {
            let base = schema.domain_base(s, Schema::KEY_ATTR);
            let counted: usize = (base..base + domain)
                .map(|key| built.db.global_key_frequency(key))
                .sum();
            prop_assert_eq!(counted, tuples);
        }
        prop_assert_eq!(built.db.total_tuples(), partitions * tuples);
    }

    /// Deadline(q) = arrival + SF * 10 * estimate, exactly.
    #[test]
    fn deadline_formula_holds(
        sf_x10 in 10u64..35,
        seed in 0u64..200,
    ) {
        let sf = sf_x10 as f64 / 10.0;
        let built = Scenario::small().transactions(40).sf(sf).build(seed);
        for task in &built.tasks {
            let expect = task.arrival() + task.processing_time().mul_f64(10.0 * sf);
            prop_assert_eq!(task.deadline(), expect);
        }
    }

    /// Placements always give every object between 1 and m copies, hitting
    /// the requested rate after rounding, and affinities reference only
    /// existing processors.
    #[test]
    fn placements_respect_rates(
        d in 1usize..12,
        workers in 1usize..12,
        rate_pct in 1u32..=100,
        random in any::<bool>(),
        seed in 0u64..100,
    ) {
        let rate = rate_pct as f64 / 100.0;
        let strategy = if random {
            ReplicationStrategy::Random
        } else {
            ReplicationStrategy::Strided
        };
        let mut rng = SimRng::seed_from(seed);
        let placement = strategy.place(d, workers, rate, &mut rng);
        let expected = ((rate * workers as f64).round() as usize).clamp(1, workers);
        for s in 0..d {
            let holders = placement.holders(DataObjectId::new(s));
            prop_assert_eq!(holders.len(), expected);
            for p in holders.iter() {
                prop_assert!(p.index() < workers);
            }
        }
    }

    /// Any value produced by the schema's domains round-trips to its
    /// sub-database and attribute.
    #[test]
    fn schema_domains_round_trip(
        attributes in 1usize..12,
        domain in 1u64..200,
        subdb in 0usize..20,
        offset in 0u64..200,
    ) {
        let schema = Schema::new(attributes, domain);
        let attr = subdb % attributes;
        let offset = offset % domain;
        let value = schema.domain_base(subdb, attr) + offset;
        prop_assert_eq!(schema.subdb_of_value(value), Some(subdb));
        prop_assert_eq!(schema.attr_of_value(value), Some(attr));
        prop_assert!(schema.value_in_domain(value, subdb, attr));
    }

    /// Scenario building is a pure function of the seed.
    #[test]
    fn scenarios_are_seed_deterministic(seed in 0u64..300) {
        let a = Scenario::small().transactions(30).build(seed);
        let b = Scenario::small().transactions(30).build(seed);
        prop_assert_eq!(a.tasks, b.tasks);
        prop_assert_eq!(a.transactions, b.transactions);
        prop_assert_eq!(a.placement, b.placement);
    }
}
