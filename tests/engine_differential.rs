//! Seeded differential property test for the incremental search engine.
//!
//! The production engine maintains one `PathState` with apply/undo; the
//! `replay-oracle` feature keeps the pre-incremental engine alive, which
//! rebuilds the state from the root on every pop. Both run the identical
//! search (same expansion order, same bookkeeping), so on every instance
//! they must agree bit-for-bit on the whole `SearchOutcome` — assignments,
//! termination, viability count, makespan and every stats counter.
//!
//! The sweep spans both representations, all task and child orderings,
//! random affinities, resource requests, tight and loose deadlines, busy
//! initial finish times, pruning bounds, vertex caps and constrained
//! quanta.

use paragon_des::{Duration, SimRng, Time};
use paragon_platform::{HostParams, SchedulingMeter};
use rt_task::{AffinitySet, CommModel, ProcessorId, ResourceEats, ResourceRequest, Task, TaskId};
use sched_search::{
    search_schedule, search_schedule_replay, search_schedule_with, ChildOrder, ProcessorOrder,
    Pruning, Representation, SearchOutcome, SearchParams, SearchScratch, TaskOrder, Termination,
};

const INSTANCES: u64 = 500;

fn random_tasks(rng: &mut SimRng, n: usize, workers: usize) -> Vec<Task> {
    (0..n)
        .map(|i| {
            let p = rng.uniform_u64(50..500);
            // Mix laxity classes: ~40% tight (little slack, heavy
            // backtracking and screening), the rest loose.
            let deadline = if rng.bernoulli(0.4) {
                p + rng.uniform_u64(0..300)
            } else {
                rng.uniform_u64(1_000..100_000)
            };
            let mut b = Task::builder(TaskId::new(i as u64))
                .processing_time(Duration::from_micros(p))
                .deadline(Time::from_micros(deadline));
            if rng.bernoulli(0.3) {
                // Restrict to a random non-empty subset of the workers.
                let keep: Vec<ProcessorId> = (0..workers)
                    .filter(|_| rng.bernoulli(0.5))
                    .map(ProcessorId::new)
                    .collect();
                if !keep.is_empty() {
                    b = b.affinity(keep.into_iter().collect::<AffinitySet>());
                }
            }
            if rng.bernoulli(0.2) {
                let r = rng.uniform_usize(0..3);
                let req = if rng.bernoulli(0.5) {
                    ResourceRequest::shared(r)
                } else {
                    ResourceRequest::exclusive(r)
                };
                b = b.resources(vec![req]);
            }
            b.build()
        })
        .collect()
}

/// One generated sweep instance: everything a `SearchParams` borrows, plus
/// the meter configuration, owned so several engines can run it.
struct Instance {
    tasks: Vec<Task>,
    comm: CommModel,
    initial: Vec<Time>,
    representation: Representation,
    child_order: ChildOrder,
    pruning: Pruning,
    vertex_cap: Option<u64>,
    resources: ResourceEats,
    provenance: bool,
    /// `Some(q)` = a 1 µs/vertex host with quantum `q`; `None` = free host.
    quantum: Option<Duration>,
}

impl Instance {
    fn params(&self) -> SearchParams<'_> {
        SearchParams {
            tasks: &self.tasks,
            comm: &self.comm,
            initial_finish: &self.initial,
            representation: &self.representation,
            child_order: self.child_order,
            now: Time::ZERO,
            vertex_cap: self.vertex_cap,
            pruning: self.pruning,
            resources: self.resources.clone(),
            provenance: self.provenance,
        }
    }

    /// Identical meters for every engine run of this instance.
    fn meter(&self) -> SchedulingMeter {
        match self.quantum {
            Some(q) => SchedulingMeter::new(HostParams::new(Duration::from_micros(1)), q),
            None => SchedulingMeter::new(HostParams::free(), Duration::ZERO),
        }
    }
}

fn random_instance(rng: &mut SimRng) -> Instance {
    let n = rng.uniform_usize(0..24);
    let workers = rng.uniform_usize(1..5);
    let tasks = random_tasks(rng, n, workers);
    let comm = match rng.uniform_usize(0..3) {
        0 => CommModel::free(),
        1 => CommModel::constant(Duration::from_micros(50)),
        _ => CommModel::constant(Duration::from_micros(2_000)),
    };
    let initial: Vec<Time> = (0..workers)
        .map(|_| Time::from_micros(rng.uniform_u64(0..300)))
        .collect();
    let representation = if rng.bernoulli(0.5) {
        Representation::AssignmentOriented {
            task_order: *rng.choose(&[
                TaskOrder::EarliestDeadline,
                TaskOrder::MinSlack,
                TaskOrder::Arrival,
                TaskOrder::ShortestProcessing,
            ]),
        }
    } else {
        // Sweep both processor orders and the skip variant — the
        // skipping path drives the per-skip raw-candidate buffer.
        Representation::SequenceOriented {
            processor_order: *rng.choose(&[ProcessorOrder::RoundRobin, ProcessorOrder::FillFirst]),
            skip_processors: rng.bernoulli(0.5),
        }
    };
    let child_order = *rng.choose(&[
        ChildOrder::LoadBalance,
        ChildOrder::EarliestCompletion,
        ChildOrder::EarliestDeadline,
        ChildOrder::None,
    ]);
    let pruning = Pruning {
        depth_bound: rng
            .bernoulli(0.3)
            .then(|| rng.uniform_usize(1..n.max(1) + 2)),
        backtrack_limit: rng.bernoulli(0.3).then(|| rng.uniform_u64(0..6)),
    };
    // Small caps force QuantumExhausted mid-expansion on some
    // instances; the generous default just guards blowups.
    let vertex_cap = if rng.bernoulli(0.3) {
        Some(rng.uniform_u64(5..300))
    } else {
        Some(20_000)
    };
    let mut resources = ResourceEats::new();
    if rng.bernoulli(0.3) {
        resources.commit(
            &[ResourceRequest::exclusive(rng.uniform_usize(0..3))],
            Time::from_micros(rng.uniform_u64(1..500)),
        );
    }
    let provenance = rng.bernoulli(0.3);
    // Free on most instances, a tight quantum with a real per-vertex cost
    // on the rest.
    let quantum = rng
        .bernoulli(0.3)
        .then(|| Duration::from_micros(rng.uniform_u64(10..2_000)));
    Instance {
        tasks,
        comm,
        initial,
        representation,
        child_order,
        pruning,
        vertex_cap,
        resources,
        provenance,
        quantum,
    }
}

#[test]
fn incremental_engine_matches_replay_oracle_over_random_instances() {
    let parent = SimRng::seed_from(0x5AD5_D1FF);
    let mut total_undos = 0u64;
    let mut total_screened = 0u64;
    let mut leaves = 0u64;
    let mut provenance_decisions = 0u64;
    let mut scratch = SearchScratch::new();

    for i in 0..INSTANCES {
        let mut rng = parent.child(i);
        let inst = random_instance(&mut rng);
        let provenance = inst.provenance;
        let params = inst.params();
        let mut meter_inc = inst.meter();
        let mut meter_rep = inst.meter();
        let mut meter_scr = inst.meter();

        let inc = search_schedule(&params, &mut meter_inc);
        let rep = search_schedule_replay(&params, &mut meter_rep);
        // Third run through ONE scratch carried across all instances: the
        // reuse path must be bit-identical no matter what the previous
        // instance left behind in the buffers.
        let scr = search_schedule_with(&params, &mut meter_scr, &mut scratch);

        assert_eq!(inc.assignments, rep.assignments, "instance {i}");
        assert_eq!(inc.termination, rep.termination, "instance {i}");
        assert_eq!(inc.n_viable, rep.n_viable, "instance {i}");
        assert_eq!(inc.makespan, rep.makespan, "instance {i}");
        assert_eq!(inc.stats, rep.stats, "instance {i}");
        assert_eq!(inc.provenance, rep.provenance, "instance {i}");
        assert_eq!(meter_inc.vertices(), meter_rep.vertices(), "instance {i}");
        assert_eq!(meter_inc.consumed(), meter_rep.consumed(), "instance {i}");

        assert_eq!(inc.assignments, scr.assignments, "scratch instance {i}");
        assert_eq!(inc.termination, scr.termination, "scratch instance {i}");
        assert_eq!(inc.n_viable, scr.n_viable, "scratch instance {i}");
        assert_eq!(inc.makespan, scr.makespan, "scratch instance {i}");
        assert_eq!(inc.stats, scr.stats, "scratch instance {i}");
        assert_eq!(inc.provenance, scr.provenance, "scratch instance {i}");
        assert_eq!(meter_inc.vertices(), meter_scr.vertices(), "instance {i}");
        assert_eq!(meter_inc.consumed(), meter_scr.consumed(), "instance {i}");
        scratch.recycle(scr.assignments);

        total_undos += inc.stats.undos;
        total_screened += inc.stats.screened_tasks;
        if provenance {
            provenance_decisions += inc
                .provenance
                .as_ref()
                .map_or(0, |p| p.decisions.len() as u64);
        }
        if inc.covers_viable() {
            leaves += 1;
        }
    }

    // The sweep must actually exercise the interesting machinery, or the
    // equality checks above are vacuous.
    assert!(total_undos > 0, "no instance ever backtracked");
    assert!(total_screened > 0, "no instance ever screened a task");
    assert!(leaves > 0, "no instance ever reached a leaf");
    assert!(leaves < INSTANCES, "every instance trivially completed");
    assert!(
        provenance_decisions > 0,
        "no provenance instance ever recorded a placement decision"
    );
}

/// The stage profiler's neutrality contract: profiling observes wall time
/// but never influences a scheduling decision, so a profiled scratch must
/// produce the bit-identical `SearchOutcome` and meter state as an
/// unprofiled one over the same 500 seeded instances as the oracle sweep.
/// The profiled runs must also actually attribute time, or the equalities
/// are vacuous.
#[test]
fn profiled_search_is_bit_identical_to_unprofiled() {
    let parent = SimRng::seed_from(0x5AD5_D1FF);
    let mut plain_scratch = SearchScratch::new();
    let mut prof_scratch = SearchScratch::new();
    prof_scratch.set_profiling(true);
    let mut attributed_ns = 0u64;

    for i in 0..INSTANCES {
        let mut rng = parent.child(i);
        let inst = random_instance(&mut rng);
        let params = inst.params();

        let mut plain_meter = inst.meter();
        let mut prof_meter = inst.meter();
        let a = search_schedule_with(&params, &mut plain_meter, &mut plain_scratch);
        let b = search_schedule_with(&params, &mut prof_meter, &mut prof_scratch);
        let at = format!("instance {i} serial");
        assert_eq!(a.assignments, b.assignments, "{at}");
        assert_eq!(a.termination, b.termination, "{at}");
        assert_eq!(a.n_viable, b.n_viable, "{at}");
        assert_eq!(a.makespan, b.makespan, "{at}");
        assert_eq!(a.stats, b.stats, "{at}");
        assert_eq!(a.provenance, b.provenance, "{at}");
        assert_eq!(plain_meter.vertices(), prof_meter.vertices(), "{at}");
        assert_eq!(plain_meter.consumed(), prof_meter.consumed(), "{at}");
        let profile = prof_scratch.take_profile();
        attributed_ns += profile.total_ns();
        assert!(
            prof_scratch.profiling(),
            "take_profile must keep the profiler armed"
        );

        plain_scratch.recycle(a.assignments);
        prof_scratch.recycle(b.assignments);
    }

    assert!(attributed_ns > 0, "profiled sweep attributed no time");
}

/// The degenerate-topology contract: a 1-node/1-rack [`TopologySpec`] is the
/// paper's flat machine, so swapping every instance's flat `CommModel` for
/// the equivalent one-node hierarchical model must leave the entire
/// `SearchOutcome` — assignments, termination, viability count, makespan,
/// every stats counter, provenance and the meter — bit-identical across the
/// same 500 seeded instances. The shard-first candidate screen must never
/// engage (it needs >= 2 nodes), so its counters stay zero.
#[test]
fn one_node_topology_is_bit_identical_to_the_flat_model() {
    use rt_task::TopologySpec;

    let parent = SimRng::seed_from(0x5AD5_D1FF);
    let mut flat_scratch = SearchScratch::new();
    let mut topo_scratch = SearchScratch::new();

    for i in 0..INSTANCES {
        let mut rng = parent.child(i);
        let flat = random_instance(&mut rng);
        let workers = flat.initial.len();
        // Every flat sweep instance uses a Constant model (free() is the
        // zero-cost constant), so the equivalent degenerate topology is one
        // node, one rack, every class costing the same C.
        let topo = Instance {
            comm: CommModel::hierarchical(TopologySpec::flat(
                workers as u32,
                flat.comm.constant_cost(),
            )),
            tasks: flat.tasks.clone(),
            initial: flat.initial.clone(),
            representation: flat.representation.clone(),
            child_order: flat.child_order,
            pruning: flat.pruning,
            vertex_cap: flat.vertex_cap,
            resources: flat.resources.clone(),
            provenance: flat.provenance,
            quantum: flat.quantum,
        };

        let mut flat_meter = flat.meter();
        let mut topo_meter = topo.meter();
        let a = search_schedule_with(&flat.params(), &mut flat_meter, &mut flat_scratch);
        let b = search_schedule_with(&topo.params(), &mut topo_meter, &mut topo_scratch);
        let at = format!("instance {i} serial");
        assert_eq!(a.assignments, b.assignments, "{at}");
        assert_eq!(a.termination, b.termination, "{at}");
        assert_eq!(a.n_viable, b.n_viable, "{at}");
        assert_eq!(a.makespan, b.makespan, "{at}");
        assert_eq!(a.stats, b.stats, "{at}");
        assert_eq!(a.provenance, b.provenance, "{at}");
        assert_eq!(flat_meter.vertices(), topo_meter.vertices(), "{at}");
        assert_eq!(flat_meter.consumed(), topo_meter.consumed(), "{at}");
        assert_eq!(b.stats.shard_screens, 0, "{at}: 1 node must not shard");
        assert_eq!(b.stats.shards_pruned, 0, "{at}: 1 node must not shard");

        flat_scratch.recycle(a.assignments);
        topo_scratch.recycle(b.assignments);
    }
}

/// FNV-1a over a stream of `u64` words (each fed as 8 little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn time(&mut self, t: Time) {
        self.word(t.as_micros());
    }

    /// Every field of `out` the search order decides: assignments,
    /// termination, viability count, makespan, each stats counter and the
    /// provenance evidence.
    fn outcome(&mut self, out: &SearchOutcome) {
        self.word(out.assignments.len() as u64);
        for a in &out.assignments {
            self.word(a.task as u64);
            self.word(a.processor.index() as u64);
            self.time(a.completion);
        }
        self.word(match out.termination {
            Termination::Leaf => 0,
            Termination::DeadEnd => 1,
            Termination::QuantumExhausted => 2,
            Termination::Pruned => 3,
        });
        self.word(out.n_viable as u64);
        self.time(out.makespan);
        let s = &out.stats;
        for w in [
            s.vertices_generated,
            s.expansions,
            s.backtracks,
            s.infeasible_children,
            s.feasible_children,
            s.deepest as u64,
            s.level_skips,
            s.depth_prunes,
            s.screened_tasks,
            s.undos,
            s.replay_avoided,
            s.shard_screens,
            s.shards_pruned,
        ] {
            self.word(w);
        }
        let Some(prov) = &out.provenance else {
            self.word(0);
            return;
        };
        self.word(1);
        self.word(prov.screened.len() as u64);
        for ev in &prov.screened {
            self.word(ev.task as u64);
            self.word(ev.probes.len() as u64);
            for pr in &ev.probes {
                self.word(pr.processor.index() as u64);
                self.time(pr.available);
                self.word(pr.demand.as_micros());
                self.time(pr.completion);
            }
        }
        self.word(prov.decisions.len() as u64);
        for d in &prov.decisions {
            self.word(d.task as u64);
            self.word(d.processor.index() as u64);
            self.time(d.completion);
            self.time(d.cost);
            self.word(d.rejected.len() as u64);
            for r in &d.rejected {
                self.word(r.processor.index() as u64);
                self.time(r.completion);
                self.time(r.cost);
            }
        }
    }
}

/// Pins the search *order*, not just engine agreement: the replay oracle
/// shares `expand` with the production engine, so a change to successor
/// ordering moves both sides of the differential together and the sweeps
/// above stay green. This test folds every outcome of the same 500 seeded
/// instances into one FNV-1a digest per (representation × child order)
/// cell and compares against committed digests, recorded from an engine that sorted
/// each child order by its full comparison tuple. Any reordering of
/// siblings, stats drift or provenance change flips a digest; a deliberate
/// change of search order lands with new digests.
#[test]
fn search_order_digests_are_pinned() {
    const ORDERS: [ChildOrder; 4] = [
        ChildOrder::LoadBalance,
        ChildOrder::EarliestCompletion,
        ChildOrder::EarliestDeadline,
        ChildOrder::None,
    ];
    // (layout, child order, serial digest).
    const PINNED: [(&str, ChildOrder, u64); 8] = [
        ("assignment", ChildOrder::LoadBalance, 0x4289_e679_5614_000b),
        (
            "assignment",
            ChildOrder::EarliestCompletion,
            0x9fa1_f4fb_e266_12cf,
        ),
        (
            "assignment",
            ChildOrder::EarliestDeadline,
            0xbf4b_816a_d473_f96b,
        ),
        ("assignment", ChildOrder::None, 0x01ef_4d09_b538_454c),
        ("sequence", ChildOrder::LoadBalance, 0x516e_3992_e4af_e70f),
        (
            "sequence",
            ChildOrder::EarliestCompletion,
            0x8daa_af97_495e_fb01,
        ),
        (
            "sequence",
            ChildOrder::EarliestDeadline,
            0x127b_5113_7b4e_76df,
        ),
        ("sequence", ChildOrder::None, 0x9ec0_3d05_a219_3a4e),
    ];
    let cell = |inst: &Instance| {
        let layout = usize::from(!inst.representation.is_assignment_oriented());
        let order = ORDERS
            .iter()
            .position(|&o| o == inst.child_order)
            .expect("every child order is swept");
        layout * ORDERS.len() + order
    };

    let parent = SimRng::seed_from(0x5AD5_D1FF);
    let mut serial: Vec<Fnv> = (0..PINNED.len()).map(|_| Fnv::new()).collect();
    let mut counts = [0u64; PINNED.len()];
    let mut scratch = SearchScratch::new();
    for i in 0..INSTANCES {
        let mut rng = parent.child(i);
        let inst = random_instance(&mut rng);
        let params = inst.params();
        let c = cell(&inst);
        counts[c] += 1;

        let out = search_schedule_with(&params, &mut inst.meter(), &mut scratch);
        serial[c].outcome(&out);
        scratch.recycle(out.assignments);
    }

    let got: Vec<(&str, ChildOrder, u64)> = PINNED
        .iter()
        .enumerate()
        .map(|(c, &(layout, order, _))| (layout, order, serial[c].0))
        .collect();
    for (c, &n) in counts.iter().enumerate() {
        assert!(n > 20, "cell {:?} drew only {n} instances", PINNED[c]);
    }
    assert_eq!(got, PINNED, "search order drifted (got, pinned)");
}
