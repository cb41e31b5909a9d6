//! Cross-crate integration tests: the full pipeline from workload
//! generation through scheduling to execution, at miniature figure scale.

use rtsads_repro::des::{Duration, Time};
use rtsads_repro::platform::HostParams;
use rtsads_repro::sads::{Algorithm, Driver, DriverConfig, QuantumPolicy};
use rtsads_repro::task::CommModel;
use rtsads_repro::workload::{ArrivalProcess, Scenario};

fn driver(workers: usize, algorithm: Algorithm) -> DriverConfig {
    DriverConfig::new(workers, algorithm)
        .comm(CommModel::constant(Duration::from_millis(2)))
        .host(HostParams::new(Duration::from_micros(1)))
}

#[test]
fn figure5_shape_rt_sads_scales_d_cols_does_not() {
    let mut sads = Vec::new();
    let mut cols = Vec::new();
    for &workers in &[2usize, 10] {
        for (algorithm, out) in [
            (Algorithm::rt_sads(), &mut sads),
            (Algorithm::d_cols(), &mut cols),
        ] {
            let mut total = 0.0;
            for seed in 0..3 {
                let built = Scenario::paper_defaults()
                    .workers(workers)
                    .transactions(300)
                    .replication_rate(0.3)
                    .build(seed);
                total += Driver::new(driver(workers, algorithm.clone()))
                    .run(built.tasks)
                    .hit_ratio();
            }
            out.push(total / 3.0);
        }
    }
    // RT-SADS gains substantially from 2 -> 10 processors...
    assert!(sads[1] > sads[0] * 1.5, "RT-SADS should scale: {sads:?}");
    // ...and beats D-COLS at the high end by a wide margin.
    assert!(
        sads[1] > cols[1] + 0.1,
        "RT-SADS {sads:?} should beat D-COLS {cols:?} at P=10"
    );
}

#[test]
fn figure6_shape_d_cols_improves_with_replication() {
    let run = |algorithm: Algorithm, rate: f64| {
        let mut total = 0.0;
        for seed in 0..3 {
            let built = Scenario::paper_defaults()
                .workers(10)
                .transactions(300)
                .replication_rate(rate)
                .build(seed);
            total += Driver::new(driver(10, algorithm.clone()))
                .run(built.tasks)
                .hit_ratio();
        }
        total / 3.0
    };
    let cols_low = run(Algorithm::d_cols(), 0.1);
    let cols_high = run(Algorithm::d_cols(), 1.0);
    assert!(
        cols_high >= cols_low,
        "D-COLS should improve with replication: {cols_low} -> {cols_high}"
    );
    let sads_low = run(Algorithm::rt_sads(), 0.1);
    let sads_high = run(Algorithm::rt_sads(), 1.0);
    assert!(
        sads_low > cols_low + 0.1 && sads_high > cols_high + 0.1,
        "RT-SADS keeps a large advantage: {sads_low}/{sads_high} vs {cols_low}/{cols_high}"
    );
}

#[test]
fn deadline_guarantee_theorem_holds_for_every_algorithm() {
    let built = Scenario::paper_defaults()
        .workers(6)
        .transactions(400)
        .replication_rate(0.3)
        .build(99);
    for algorithm in [
        Algorithm::rt_sads(),
        Algorithm::d_cols(),
        Algorithm::d_cols_skipping(),
        Algorithm::GreedyEdf,
        Algorithm::myopic(),
        Algorithm::RandomAssign,
    ] {
        let report = Driver::new(driver(6, algorithm.clone()).seed(99)).run(built.tasks.clone());
        assert_eq!(
            report.executed_misses,
            0,
            "{} broke the theorem",
            algorithm.name()
        );
        assert!(report.is_consistent(), "{} accounting", algorithm.name());
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let built = Scenario::paper_defaults()
            .workers(5)
            .transactions(250)
            .build(7);
        Driver::new(driver(5, Algorithm::rt_sads()).seed(7)).run(built.tasks)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.hits, b.hits);
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.phases.len(), b.phases.len());
    for (pa, pb) in a.phases.iter().zip(&b.phases) {
        assert_eq!(pa, pb);
    }
}

#[test]
fn poisson_arrivals_flow_through_the_driver() {
    let built = Scenario::paper_defaults()
        .workers(4)
        .transactions(200)
        .arrivals(ArrivalProcess::Poisson {
            start: Time::ZERO,
            // mean service is ~4.5ms over 4 workers: a 3ms gap keeps the
            // system underloaded (rho ~ 0.4)
            mean_gap: Duration::from_millis(3),
        })
        .build(3);
    assert!(built.tasks.iter().any(|t| t.arrival() > Time::ZERO));
    let report = Driver::new(driver(4, Algorithm::rt_sads())).run(built.tasks);
    assert!(report.is_consistent());
    // an open system with breathing room does far better than the burst
    assert!(
        report.hit_ratio() > 0.6,
        "open-load hit ratio {}",
        report.hit_ratio()
    );
}

#[test]
fn executed_transactions_can_be_replayed_against_the_database() {
    let built = Scenario::small().transactions(80).build(11);
    let report = Driver::new(driver(4, Algorithm::rt_sads())).run(built.tasks.clone());
    for completion in &report.completions {
        let txn = built
            .transaction_of(completion.task)
            .expect("every executed task is a transaction");
        // the service time charged by the machine covers the checking work
        // the host's key index prices
        let estimate = built.cost.estimate(&built.db, txn);
        assert!(
            estimate <= completion.service,
            "task {} estimate {estimate} exceeds charged service {}",
            completion.task,
            completion.service
        );
    }
}

#[test]
fn fixed_quantum_policies_run_to_completion() {
    let built = Scenario::small().transactions(120).build(5);
    for policy in [
        QuantumPolicy::self_adjusting(),
        QuantumPolicy::Fixed(Duration::from_millis(1)),
        QuantumPolicy::SelfAdjusting {
            max: Some(Duration::from_millis(5)),
        },
    ] {
        let report =
            Driver::new(driver(4, Algorithm::rt_sads()).quantum(policy)).run(built.tasks.clone());
        assert!(report.is_consistent(), "{policy:?}");
        assert_eq!(report.executed_misses, 0, "{policy:?}");
    }
}

#[test]
fn low_affinity_tasks_execute_only_on_affine_processors() {
    // R=10% on 10 workers: singleton affinity; C=2ms dwarfs keyed deadlines,
    // so every *keyed* execution must be local.
    let built = Scenario::paper_defaults()
        .workers(10)
        .transactions(300)
        .replication_rate(0.1)
        .build(13);
    let report = Driver::new(driver(10, Algorithm::rt_sads())).run(built.tasks.clone());
    let mut checked = 0;
    for completion in &report.completions {
        let task = built
            .tasks
            .iter()
            .find(|t| t.id() == completion.task)
            .unwrap();
        // keyed (cheap) transactions cannot afford the 2ms hop
        if task.processing_time() < Duration::from_millis(1) {
            assert!(
                task.affinity().contains(completion.processor),
                "keyed task executed remotely"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "expected some keyed executions");
}
