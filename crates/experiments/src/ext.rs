//! Extension experiments: parameter sweeps described in the paper's prose
//! and ablations of RT-SADS's own mechanisms (DESIGN.md, Ext. A–E, plus a
//! baseline comparison).

use paragon_des::Duration;
use rt_stats::{Series, Table};
use rtsads::{Algorithm, DriverConfig, QuantumPolicy};
use sched_search::{ChildOrder, ProcessorOrder, TaskOrder};

use crate::config::{comm_model, host_params, ExperimentConfig};
use crate::fig5::PROCESSORS;
use crate::fig6::RATES;
use crate::runner::{run_point, FigureOutput, PointResult};

fn point(
    config: &ExperimentConfig,
    workers: usize,
    rate: f64,
    sf: f64,
    driver: DriverConfig,
) -> PointResult {
    let scenario = config
        .base_scenario()
        .workers(workers)
        .replication_rate(rate)
        .sf(sf);
    run_point(&scenario, &driver, config.runs, config.seed_base)
}

fn default_driver(workers: usize, algorithm: Algorithm) -> DriverConfig {
    DriverConfig::new(workers, algorithm)
        .comm(comm_model())
        .host(host_params())
}

/// **Ext. A (laxity)** — the Figure-5 sweep at `SF ∈ {1, 2, 3}`, backing
/// the paper's "in all parameters configuration, RT-SADS outperforms …".
#[must_use]
pub fn laxity(config: &ExperimentConfig) -> FigureOutput {
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for &sf in &[1.0, 2.0, 3.0] {
        for alg in [Algorithm::rt_sads(), Algorithm::d_cols()] {
            let mut s = Series::new(format!("{} SF={sf}", alg.name()));
            for &m in &PROCESSORS {
                let p = point(config, m, 0.3, sf, default_driver(m, alg.clone()));
                s.push(m as f64, p.mean_hit_ratio());
            }
            series.push(s);
        }
    }
    for pair in series.chunks(2) {
        let (sads, cols) = (&pair[0], &pair[1]);
        let wins = sads
            .points()
            .iter()
            .zip(cols.points())
            .filter(|(a, b)| a.1 >= b.1)
            .count();
        notes.push(format!(
            "{} >= {} at {}/{} processor counts",
            sads.label(),
            cols.label(),
            wins,
            sads.points().len()
        ));
    }
    FigureOutput {
        id: "ext-laxity",
        table: Table::new(
            "Ext. A: scalability across slack factors (R=30%)",
            "processors",
            series,
        ),
        notes,
    }
}

/// **Ext. B (quantum ablation)** — the self-adjusting quantum against fixed
/// quanta, validating Section 4.2's allocation criterion.
#[must_use]
pub fn quantum(config: &ExperimentConfig) -> FigureOutput {
    let policies: [(&str, QuantumPolicy); 5] = [
        ("self-adjusting", QuantumPolicy::self_adjusting()),
        (
            "self-adj <=5ms",
            QuantumPolicy::SelfAdjusting {
                max: Some(Duration::from_millis(5)),
            },
        ),
        ("fixed 1ms", QuantumPolicy::Fixed(Duration::from_millis(1))),
        ("fixed 5ms", QuantumPolicy::Fixed(Duration::from_millis(5))),
        (
            "fixed 25ms",
            QuantumPolicy::Fixed(Duration::from_millis(25)),
        ),
    ];
    let mut series = Vec::new();
    for (label, policy) in policies {
        let mut s = Series::new(label);
        for &m in &PROCESSORS {
            let driver = default_driver(m, Algorithm::rt_sads()).quantum(policy);
            let p = point(config, m, 0.3, 1.0, driver);
            s.push(m as f64, p.mean_hit_ratio());
        }
        series.push(s);
    }
    let best_fixed = series[2..]
        .iter()
        .map(|s| s.points().last().map(|&(_, y)| y).unwrap_or(0.0))
        .fold(f64::NEG_INFINITY, f64::max);
    let adaptive = series[0].points().last().map(|&(_, y)| y).unwrap_or(0.0);
    let capped = series[1].points().last().map(|&(_, y)| y).unwrap_or(0.0);
    let notes = vec![
        format!(
            "at P=10: self-adjusting {adaptive:.4} vs best fixed {best_fixed:.4} \
             (adaptive {} the hand-tuned quanta)",
            if adaptive >= best_fixed {
                "matches or beats"
            } else {
                "trails"
            }
        ),
        format!(
            "capping the criterion at 5ms (still within Figure 3's `Q_s <= max(...)`) \
             gives {capped:.4} at P=10: long Min_Load-driven phases are the only \
             regime where the pure criterion loses ground"
        ),
    ];
    FigureOutput {
        id: "ext-quantum",
        table: Table::new(
            "Ext. B: quantum policy ablation (RT-SADS, R=30%, SF=1)",
            "processors",
            series,
        ),
        notes,
    }
}

/// **Ext. C (cost-function ablation)** — the load-balancing cost function
/// against cheaper successor orderings, over the replication sweep where
/// communication non-uniformity matters most (Section 4.4).
#[must_use]
pub fn cost(config: &ExperimentConfig) -> FigureOutput {
    let variants: [(&str, ChildOrder); 3] = [
        ("load-balance CE", ChildOrder::LoadBalance),
        ("earliest completion", ChildOrder::EarliestCompletion),
        ("no heuristic", ChildOrder::None),
    ];
    let workers = 10;
    let mut series = Vec::new();
    for (label, child_order) in variants {
        let alg = Algorithm::RtSads {
            task_order: TaskOrder::EarliestDeadline,
            child_order,
        };
        let mut s = Series::new(label);
        for &r in &RATES {
            let p = point(
                config,
                workers,
                r,
                1.0,
                default_driver(workers, alg.clone()),
            );
            s.push(r, p.mean_hit_ratio());
        }
        series.push(s);
    }
    let notes = vec![format!(
        "mean over the R sweep: CE {:.4}, earliest-completion {:.4}, none {:.4}",
        mean_y(&series[0]),
        mean_y(&series[1]),
        mean_y(&series[2]),
    )];
    FigureOutput {
        id: "ext-cost",
        table: Table::new(
            "Ext. C: successor-ordering ablation (RT-SADS, P=10, SF=1)",
            "replication",
            series,
        ),
        notes,
    }
}

/// **Ext. D (scheduling overhead)** — measured scheduling cost per run: the
/// paper's "physical time required to run the scheduling algorithm", in
/// virtual milliseconds, plus vertices generated.
#[must_use]
pub fn overhead(config: &ExperimentConfig) -> FigureOutput {
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for alg in [Algorithm::rt_sads(), Algorithm::d_cols()] {
        let mut sched = Series::new(format!("{} sched ms", alg.name()));
        let mut verts = Vec::new();
        for &m in &PROCESSORS {
            let p = point(config, m, 0.3, 1.0, default_driver(m, alg.clone()));
            sched.push(
                m as f64,
                p.sched_time_ms.iter().sum::<f64>() / p.sched_time_ms.len() as f64,
            );
            verts.push(p.vertices.iter().sum::<f64>() / p.vertices.len() as f64);
        }
        notes.push(format!(
            "{}: mean vertices per run across P sweep: {:?}",
            alg.name(),
            verts.iter().map(|v| v.round()).collect::<Vec<_>>()
        ));
        series.push(sched);
    }
    FigureOutput {
        id: "ext-overhead",
        table: Table::new(
            "Ext. D: scheduling cost (virtual ms per run, R=30%, SF=1)",
            "processors",
            series,
        ),
        notes,
    }
}

/// **Ext. E (dead-ends & processor coverage)** — dead-end phases and mean
/// processors used per delivering phase, validating Section 3's conjecture
/// that pruned sequence-oriented search dead-ends early and loads only a
/// fraction of the machine.
#[must_use]
pub fn deadends(config: &ExperimentConfig) -> FigureOutput {
    let workers = 10;
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for alg in [Algorithm::rt_sads(), Algorithm::d_cols()] {
        let mut dead = Series::new(format!("{} dead-ends", alg.name()));
        let mut coverage = Vec::new();
        for &r in &RATES {
            let p = point(
                config,
                workers,
                r,
                1.0,
                default_driver(workers, alg.clone()),
            );
            dead.push(
                r,
                p.dead_ends.iter().sum::<f64>() / p.dead_ends.len() as f64,
            );
            coverage.push(p.procs_used.iter().sum::<f64>() / p.procs_used.len() as f64);
        }
        notes.push(format!(
            "{}: mean processors used per delivering phase over R sweep: {:?}",
            alg.name(),
            coverage
                .iter()
                .map(|c| (c * 10.0).round() / 10.0)
                .collect::<Vec<_>>()
        ));
        series.push(dead);
    }
    FigureOutput {
        id: "ext-deadends",
        table: Table::new(
            "Ext. E: dead-end phases per run (P=10, SF=1)",
            "replication",
            series,
        ),
        notes,
    }
}

/// **Ext. F (baselines)** — the Figure-5 sweep including the greedy-EDF and
/// random-assignment baselines and the fill-first D-COLS variant.
#[must_use]
pub fn baselines(config: &ExperimentConfig) -> FigureOutput {
    let algorithms = vec![
        Algorithm::rt_sads(),
        Algorithm::d_cols(),
        Algorithm::d_cols_skipping(),
        Algorithm::DCols {
            processor_order: ProcessorOrder::FillFirst,
            child_order: ChildOrder::EarliestDeadline,
            skip_processors: false,
        },
        Algorithm::GreedyEdf,
        Algorithm::myopic(),
        Algorithm::RandomAssign,
    ];
    let mut series = Vec::new();
    for alg in &algorithms {
        let mut s = Series::new(alg.name());
        for &m in &PROCESSORS {
            let p = point(config, m, 0.3, 1.0, default_driver(m, alg.clone()));
            s.push(m as f64, p.mean_hit_ratio());
        }
        series.push(s);
    }
    let notes = vec![format!(
        "mean hit ratio over P sweep: {}",
        series
            .iter()
            .map(|s| format!("{} {:.4}", s.label(), mean_y(s)))
            .collect::<Vec<_>>()
            .join(", ")
    )];
    FigureOutput {
        id: "ext-baselines",
        table: Table::new(
            "Ext. F: all schedulers on the Figure-5 sweep (R=30%, SF=1)",
            "processors",
            series,
        ),
        notes,
    }
}

/// **Ext. G (open load)** — Poisson arrivals instead of the paper's burst:
/// hit ratio as the offered load (utilization) varies, 10 processors. The
/// burst experiments measure transient overload; this measures the steady
/// state an actual database server would see.
#[must_use]
pub fn open_load(config: &ExperimentConfig) -> FigureOutput {
    use paragon_des::Time;
    use rt_workload::ArrivalProcess;

    let workers = 10;
    // mean service is ~4.3ms; with 10 workers, a gap g gives rho = 4.3/(10 g)
    let gaps_us: [u64; 5] = [2_000, 1_000, 600, 430, 300]; // rho ~ 0.22..1.4
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for alg in [
        Algorithm::rt_sads(),
        Algorithm::d_cols(),
        Algorithm::GreedyEdf,
    ] {
        let mut s = Series::new(alg.name());
        for &gap in &gaps_us {
            let rho = 4_300.0 / (workers as f64 * gap as f64);
            let scenario = config
                .base_scenario()
                .workers(workers)
                .replication_rate(0.3)
                .arrivals(ArrivalProcess::Poisson {
                    start: Time::ZERO,
                    mean_gap: Duration::from_micros(gap),
                });
            let driver = default_driver(workers, alg.clone());
            let p = run_point(&scenario, &driver, config.runs, config.seed_base);
            s.push((rho * 100.0).round() / 100.0, p.mean_hit_ratio());
        }
        series.push(s);
    }
    let sads_low = series[0].points().first().map(|&(_, y)| y).unwrap_or(0.0);
    notes.push(format!(
        "RT-SADS at rho~0.43: {sads_low:.4}; open load separates the schedulers far \
         less than the paper's burst (transient overload is the hard case)"
    ));
    FigureOutput {
        id: "ext-openload",
        table: Table::new(
            "Ext. G: open Poisson load (P=10, R=30%, SF=1); x = offered utilization",
            "rho",
            series,
        ),
        notes,
    }
}

/// **Ext. H (pruning)** — Section 3 claims that the pruning heuristics
/// dynamic schedulers need (limited backtracking, depth bounds) hurt the
/// sequence-oriented representation disproportionately. Sweep the backtrack
/// limit for both representations.
#[must_use]
pub fn pruning(config: &ExperimentConfig) -> FigureOutput {
    use sched_search::Pruning;

    let workers = 10;
    let limits: [(f64, Option<u64>); 4] = [
        (0.0, Some(0)),
        (10.0, Some(10)),
        (100.0, Some(100)),
        (1e6, None),
    ];
    let mut series = Vec::new();
    for alg in [Algorithm::rt_sads(), Algorithm::d_cols()] {
        let mut s = Series::new(alg.name());
        for &(x, limit) in &limits {
            let driver = default_driver(workers, alg.clone()).pruning(Pruning {
                depth_bound: None,
                backtrack_limit: limit,
            });
            let p = point(config, workers, 0.3, 1.0, driver);
            s.push(x, p.mean_hit_ratio());
        }
        series.push(s);
    }
    let sads_span = series[0].points().last().unwrap().1 - series[0].points()[0].1;
    let cols_span = series[1].points().last().unwrap().1 - series[1].points()[0].1;
    let notes = vec![
        format!(
            "effect of unlimited vs zero backtracking: RT-SADS {:+.4}, D-COLS {:+.4} \
             (x axis: backtrack limit, 1e6 = unlimited)",
            sads_span, cols_span
        ),
        "a NEGATIVE RT-SADS effect means aggressive pruning helps under burst \
         overload: cutting a phase at its first backtrack delivers early and \
         re-plans with fresh loads, while exhaustive backtracking re-arranges \
         tasks that are already doomed. D-COLS is insensitive: its expansions \
         exhaust the quantum before any backtrack limit can bind."
            .to_string(),
    ];
    FigureOutput {
        id: "ext-pruning",
        table: Table::new(
            "Ext. H: backtrack-limit pruning (P=10, R=30%, SF=1)",
            "backtrack-limit",
            series,
        ),
        notes,
    }
}

/// **Ext. I (mesh validation)** — the paper justifies its constant-`C`
/// communication model by the Paragon's cut-through routing. Re-run the
/// Figure-5 sweep with an *actual* 2D-mesh distance model (calibrated so
/// the mean pairwise cost matches `C = 2 ms`) and check that the
/// conclusions survive the abstraction.
#[must_use]
pub fn mesh(config: &ExperimentConfig) -> FigureOutput {
    use rt_task::{CommModel, MeshSpec};

    // Geometry per worker count: two rows, ceil(m/2) columns. Costs chosen
    // so the 5x2 (P=10) mean pairwise cost ~ 2 ms.
    let mesh_for = |m: usize| {
        let cols = m.div_ceil(2).max(1) as u16;
        let rows = if m > 1 { 2 } else { 1 };
        MeshSpec::new(cols, rows, 1_000, 430)
    };

    let mut series = Vec::new();
    let mut notes = Vec::new();
    for alg in [Algorithm::rt_sads(), Algorithm::d_cols()] {
        for mesh_mode in [false, true] {
            let label = format!(
                "{} ({})",
                alg.name(),
                if mesh_mode { "mesh" } else { "constant C" }
            );
            let mut s = Series::new(label);
            for &m in &PROCESSORS {
                let comm = if mesh_mode {
                    CommModel::mesh(mesh_for(m))
                } else {
                    comm_model()
                };
                let driver = DriverConfig::new(m, alg.clone())
                    .comm(comm)
                    .host(host_params());
                let p = point(config, m, 0.3, 1.0, driver);
                s.push(m as f64, p.mean_hit_ratio());
            }
            series.push(s);
        }
    }
    notes.push(format!(
        "mesh calibrated to a mean pairwise cost of {:.0} us at P=10 (constant C = {} us)",
        mesh_for(10).mean_pair_cost_micros(),
        comm_model().constant_cost().as_micros()
    ));
    let sads_gap: f64 = PROCESSORS
        .iter()
        .enumerate()
        .map(|(i, _)| (series[0].points()[i].1 - series[1].points()[i].1).abs())
        .fold(0.0, f64::max);
    notes.push(format!(
        "largest |constant - mesh| difference for RT-SADS across the sweep: {sads_gap:.4} \
         — the constant-C abstraction {} the paper's conclusions",
        if sads_gap < 0.05 {
            "preserves"
        } else {
            "MATERIALLY CHANGES"
        }
    ));
    FigureOutput {
        id: "ext-mesh",
        table: Table::new(
            "Ext. I: constant-C vs 2D-mesh interconnect (R=30%, SF=1)",
            "processors",
            series,
        ),
        notes,
    }
}

/// **Ext. J (resource contention)** — the task model of references \[3\]/\[6\]:
/// tasks hold shared/exclusive resources for their whole execution. Sweep
/// the fraction of transactions that lock one of five resources
/// (exclusively, half the time) and watch deadline compliance degrade.
#[must_use]
pub fn resources(config: &ExperimentConfig) -> FigureOutput {
    use paragon_des::SimRng;
    use rt_workload::ResourceProfile;
    use rtsads::Driver;

    let workers = 10;
    let participations = [0.0, 0.25, 0.5, 0.75, 1.0];
    let mut series = Vec::new();
    for alg in [
        Algorithm::rt_sads(),
        Algorithm::GreedyEdf,
        Algorithm::myopic(),
    ] {
        let mut s = Series::new(alg.name());
        for &participation in &participations {
            let profile = if participation == 0.0 {
                ResourceProfile::none()
            } else {
                ResourceProfile {
                    resources: 5,
                    participation,
                    exclusive: 0.5,
                    max_per_task: 2,
                }
            };
            let mut ratios = Vec::new();
            for run in 0..config.runs as u64 {
                let seed = config.seed_base + run;
                let built = config
                    .base_scenario()
                    .workers(workers)
                    .replication_rate(0.3)
                    .build(seed);
                let tasks = profile.decorate(&built.tasks, &mut SimRng::seed_from(seed ^ 0xABCD));
                let driver = default_driver(workers, alg.clone()).seed(seed);
                let report = Driver::new(driver).run(tasks);
                assert_eq!(report.executed_misses, 0, "theorem with resources");
                ratios.push(report.hit_ratio());
            }
            s.push(
                participation,
                ratios.iter().sum::<f64>() / ratios.len() as f64,
            );
        }
        series.push(s);
    }
    let sads_drop = series[0].points()[0].1 - series[0].points().last().unwrap().1;
    let notes = vec![format!(
        "RT-SADS loses {:.1} points going from independent tasks to full resource \
         participation; the deadline-guarantee theorem held in every run (resource \
         waits are part of the feasibility test)",
        sads_drop * 100.0
    )];
    FigureOutput {
        id: "ext-resources",
        table: Table::new(
            "Ext. J: resource contention (P=10, R=30%, SF=1; 5 resources, 50% exclusive)",
            "participation",
            series,
        ),
        notes,
    }
}

/// **Ext. K (faults)** — graceful degradation under fault injection: hit
/// ratio as the per-processor failure rate rises, for RT-SADS and D-COLS
/// at P=10. With `mttr_ms == 0` failures are fail-stop; otherwise
/// processors recover after an exponential repair time. Also reports the
/// fault-accounting tallies (orphaned, lost in flight) per rate.
#[must_use]
pub fn faults(config: &ExperimentConfig) -> FigureOutput {
    use rtsads::FaultConfig;

    let workers = 10;
    let rates = config.fault_rate_sweep();
    let mttr = config.mttr();
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for alg in [Algorithm::rt_sads(), Algorithm::d_cols()] {
        let mut s = Series::new(alg.name());
        let mut tallies = Vec::new();
        for &rate in &rates {
            let fc = match mttr {
                _ if rate <= 0.0 => FaultConfig::disabled(),
                None => FaultConfig::fail_stop(rate),
                Some(m) => FaultConfig::fail_recover(rate, m),
            };
            let driver = default_driver(workers, alg.clone()).faults(fc);
            let p = point(config, workers, 0.3, 2.0, driver);
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            tallies.push(format!(
                "rate {rate}: orphaned {:.1}, lost {:.1}, faults {:.1}",
                mean(&p.orphaned),
                mean(&p.lost_in_flight),
                mean(&p.faults_seen)
            ));
            s.push(rate, p.mean_hit_ratio());
        }
        notes.push(format!("{}: {}", alg.name(), tallies.join("; ")));
        series.push(s);
    }
    for s in &series {
        let first = s.points().first().map(|&(_, y)| y).unwrap_or(0.0);
        let last = s.points().last().map(|&(_, y)| y).unwrap_or(0.0);
        notes.push(format!(
            "{}: hit ratio {first:.4} fault-free -> {last:.4} at the highest rate \
             ({} degradation)",
            s.label(),
            if last <= first {
                "graceful"
            } else {
                "NON-MONOTONE"
            }
        ));
    }
    FigureOutput {
        id: "ext-faults",
        table: Table::new(
            "Ext. K: hit ratio vs processor failure rate (P=10, R=30%, SF=2)",
            "failures/proc/s",
            series,
        ),
        notes,
    }
}

/// **Ext. L (sharded cluster)** — scale the platform past the Paragon's
/// ten processors: P ∈ {64, 256, 1024} arranged as 64-processor nodes
/// (P/64 nodes, grouped four-per-rack once there are enough of them).
/// Compare the flat constant-`C` machine against the hierarchical model
/// (intra-node free, inter-node `C`, inter-rack `2C`) where the engine
/// screens whole shards before running the per-processor candidate loop.
/// P=64 is the degenerate single-node topology, which is bit-identical to
/// the flat model by construction — its two points must coincide.
#[must_use]
pub fn sharded(config: &ExperimentConfig) -> FigureOutput {
    use rt_task::{CommModel, TopologySpec};

    let procs = [64usize, 256, 1024];
    let topo_for = |m: usize| {
        let nodes = (m / 64).max(1) as u32;
        if nodes < 2 {
            // One node: the hierarchical model degenerates to the flat
            // constant-C machine, so mirror it exactly.
            return TopologySpec::flat(m as u32, comm_model().constant_cost());
        }
        let racks = (nodes / 4).max(1);
        TopologySpec::new(m as u32, nodes, racks, 0, 2_000, 4_000)
    };

    let mut series = Vec::new();
    let mut notes = Vec::new();
    let mut sched_at_top = [0.0f64; 2];
    for (idx, sharded_mode) in [false, true].into_iter().enumerate() {
        let label = format!(
            "RT-SADS ({})",
            if sharded_mode { "sharded" } else { "flat C" }
        );
        let mut s = Series::new(label);
        for &m in &procs {
            let comm = if sharded_mode {
                CommModel::hierarchical(topo_for(m))
            } else {
                comm_model()
            };
            let driver = DriverConfig::new(m, Algorithm::rt_sads())
                .comm(comm)
                .host(host_params());
            let p = point(config, m, 0.3, 1.0, driver);
            if m == *procs.last().unwrap() {
                sched_at_top[idx] =
                    p.sched_time_ms.iter().sum::<f64>() / p.sched_time_ms.len().max(1) as f64;
            }
            s.push(m as f64, p.mean_hit_ratio());
        }
        series.push(s);
    }
    let t = topo_for(1_024);
    notes.push(format!(
        "topology at P=1024: {} nodes x {} racks, intra-node {} us / inter-node {} us / \
         inter-rack {} us (flat C = {} us)",
        t.nodes(),
        t.racks(),
        t.intra_node_cost().as_micros(),
        t.inter_node_cost().as_micros(),
        t.inter_rack_cost().as_micros(),
        comm_model().constant_cost().as_micros()
    ));
    let p64_gap = (series[0].points()[0].1 - series[1].points()[0].1).abs();
    notes.push(format!(
        "P=64 is a single 64-processor node: |flat - sharded| = {p64_gap:.6} \
         ({})",
        if p64_gap == 0.0 {
            "bit-identical, as required"
        } else {
            "EXPECTED ZERO — degenerate-topology contract violated"
        }
    ));
    notes.push(format!(
        "mean scheduling time at P=1024: flat {:.2} ms vs sharded {:.2} ms — shard-first \
         screening {} the per-vertex candidate loop",
        sched_at_top[0],
        sched_at_top[1],
        if sched_at_top[1] <= sched_at_top[0] {
            "shortens"
        } else {
            "did NOT shorten"
        }
    ));
    FigureOutput {
        id: "ext-sharded",
        table: Table::new(
            "Ext. L: flat vs sharded hierarchical topology (R=30%, SF=1)",
            "processors",
            series,
        ),
        notes,
    }
}

fn mean_y(s: &Series) -> f64 {
    let pts = s.points();
    pts.iter().map(|&(_, y)| y).sum::<f64>() / pts.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            runs: 1,
            transactions: 40,
            seed_base: 3,
            base: None,
            fault_rates: Vec::new(),
            mttr_ms: 0,
        }
    }

    #[test]
    fn quantum_ablation_structure() {
        let fig = quantum(&tiny());
        assert_eq!(fig.table.series().len(), 5);
        assert_eq!(fig.id, "ext-quantum");
    }

    #[test]
    fn cost_ablation_structure() {
        let fig = cost(&tiny());
        assert_eq!(fig.table.series().len(), 3);
        assert_eq!(fig.table.xs().len(), RATES.len());
    }

    #[test]
    fn deadends_and_overhead_structure() {
        let d = deadends(&tiny());
        assert_eq!(d.table.series().len(), 2);
        assert!(!d.notes.is_empty());
        let o = overhead(&tiny());
        assert_eq!(o.table.series().len(), 2);
        assert!(o.notes.iter().all(|n| n.contains("vertices")));
    }

    #[test]
    fn faults_figure_structure() {
        let mut cfg = tiny();
        cfg.fault_rates = vec![0.0, 4.0];
        cfg.mttr_ms = 100;
        let fig = faults(&cfg);
        assert_eq!(fig.id, "ext-faults");
        assert_eq!(fig.table.series().len(), 2);
        assert_eq!(fig.table.xs(), &[0.0, 4.0]);
        assert!(fig.notes.iter().any(|n| n.contains("orphaned")));
    }

    #[test]
    fn sharded_figure_structure() {
        let fig = sharded(&tiny());
        assert_eq!(fig.id, "ext-sharded");
        assert_eq!(fig.table.series().len(), 2);
        assert_eq!(fig.table.xs(), &[64.0, 256.0, 1024.0]);
        // P=64 is a single node: the hierarchical point must equal the flat one.
        let flat = fig.table.series()[0].points()[0].1;
        let hier = fig.table.series()[1].points()[0].1;
        assert_eq!(flat, hier, "1-node topology must match the flat model");
        assert!(fig.notes.iter().any(|n| n.contains("bit-identical")));
    }

    #[test]
    fn baselines_include_all_algorithms() {
        let fig = baselines(&tiny());
        assert_eq!(fig.table.series().len(), 7);
        for name in [
            "RT-SADS",
            "D-COLS",
            "D-COLS/skip",
            "D-COLS/fill-first",
            "Greedy-EDF",
            "Myopic",
            "Random",
        ] {
            assert!(fig.table.series_by_label(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn pruning_unlimited_row_is_figure_5_at_p10() {
        // Ext. H sweeps the backtrack limit at Figure 5's P=10 point (R=30%,
        // SF=1), so its unlimited row must read Figure 5's P=10 hit ratios.
        // `tiny()` is too small to tell SF=1 from SF=2 apart.
        let config = ExperimentConfig::quick();
        let fig = pruning(&config);
        for (alg, row) in [Algorithm::rt_sads(), Algorithm::d_cols()]
            .iter()
            .zip(fig.table.series())
        {
            assert_eq!(row.label(), alg.name());
            let &(x, unlimited) = row.points().last().expect("four limits");
            assert_eq!(x, 1e6, "the last column is the unlimited one");
            let fig5 = crate::fig5::sweep(&config, alg);
            let p10 = fig5.last().expect("P=10 is swept last").mean_hit_ratio();
            assert_eq!(
                unlimited,
                p10,
                "{}: Ext. H unlimited vs Figure 5 P=10",
                alg.name()
            );
        }
    }
}
