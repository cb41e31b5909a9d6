//! The end-to-end scheduler/executor loop: batches, phases, dispatch.
//!
//! The driver realizes the concurrency structure of Section 4: while the
//! working processors execute the previously delivered schedule `S_j`, the
//! host processor runs scheduling phase `j+1` over `Batch(j+1)`. In virtual
//! time this becomes a sequential loop — compute phase `j` at `t_s`, charge
//! its scheduling time, deliver `S_j` at `t_e = t_s + consumed`, repeat —
//! which is exact because worker queues are FIFO, non-preemptive and
//! append-only.
//!
//! [`Driver::run_traced`] runs each turn of that loop as named steps over
//! one run state: apply faults, ingest, expire (an empty batch then takes
//! the idle jump, or ends the run), allot `Q_s(j)`, search, emit decisions,
//! deliver, emit deliveries, record the phase and fast-forward; the report
//! is built once the loop ends. A scheduling step reads the sink's
//! `enabled()` only where an event interleaves with per-item work:
//! admissions, drops, fault events and spike losses. The steps are generic
//! over the sink, so [`Driver::run`] compiles the trace code out.

use std::iter::Peekable;
use std::vec;

use paragon_des::trace::{TraceEvent, TraceSink, Tracer};
use paragon_des::{Duration, SimRng, Time};
use paragon_platform::{Dispatch, HostParams, Machine, MachineConfig, SchedulingMeter};
use rt_task::{Batch, CommModel, Task, TopologySpec};

use sched_search::{PhaseInput, SearchOutcome};

use crate::algorithm::{Algorithm, PhaseScratch};
use crate::faults::{self, FaultConfig, FaultEvent, FaultKind, FaultPlan, InFlightPolicy};
use crate::quantum::QuantumPolicy;
use crate::report::{PhaseRecord, RunReport};

/// Configuration of one simulation run.
///
/// Construct with [`DriverConfig::new`] and chain the setters.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    workers: usize,
    comm: CommModel,
    host: HostParams,
    quantum: QuantumPolicy,
    algorithm: Algorithm,
    vertex_cap: Option<u64>,
    backtrack_limit: Option<u64>,
    seed: u64,
    faults: FaultConfig,
    fault_plan: Option<FaultPlan>,
    measure_overhead: bool,
    profile: bool,
}

impl DriverConfig {
    /// A configuration with `workers` working processors running
    /// `algorithm`, free communication, default host cost, the paper's
    /// self-adjusting quantum and a defensive vertex cap.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn new(workers: usize, algorithm: Algorithm) -> Self {
        assert!(workers > 0, "at least one working processor required");
        DriverConfig {
            workers,
            comm: CommModel::free(),
            host: HostParams::default(),
            quantum: QuantumPolicy::self_adjusting(),
            algorithm,
            vertex_cap: Some(2_000_000),
            backtrack_limit: None,
            seed: 0,
            faults: FaultConfig::disabled(),
            fault_plan: None,
            measure_overhead: false,
            profile: false,
        }
    }

    /// Sets the interconnect cost model.
    #[must_use]
    pub fn comm(mut self, comm: CommModel) -> Self {
        self.comm = comm;
        self
    }

    /// Sets the host (scheduling) cost parameters.
    #[must_use]
    pub fn host(mut self, host: HostParams) -> Self {
        self.host = host;
        self
    }

    /// Sets the scheduling-time allocation policy.
    #[must_use]
    pub fn quantum(mut self, quantum: QuantumPolicy) -> Self {
        self.quantum = quantum;
        self
    }

    /// Sets (or disables) the per-phase vertex cap that guards unbounded
    /// searches when the host's vertex cost is zero.
    #[must_use]
    pub fn vertex_cap(mut self, cap: Option<u64>) -> Self {
        self.vertex_cap = cap;
        self
    }

    /// Sets (or disables) Section 3's backtrack limit for the search-based
    /// algorithms: a phase ends after this many backtracks.
    #[must_use]
    pub fn backtrack_limit(mut self, limit: Option<u64>) -> Self {
        self.backtrack_limit = limit;
        self
    }

    /// Sets the seed for algorithms that randomize, and for fault-plan
    /// sampling when a [`FaultConfig`] is set.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables fault injection: the concrete [`FaultPlan`] is sampled from
    /// the run seed at [`Driver::run`] time. The default is
    /// [`FaultConfig::disabled`], under which runs are bit-identical to a
    /// driver without fault support at all.
    #[must_use]
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides fault-plan sampling with an explicit plan — for tests and
    /// replay of a recorded plan. Takes precedence over
    /// [`DriverConfig::faults`].
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Measure the wall-clock time each scheduling phase actually takes and
    /// emit it as [`TraceEvent::SchedulerOverhead`] next to the allocated
    /// quantum. Off by default: wall time is nondeterministic, so enabling
    /// it makes traces differ byte-for-byte between repeat runs (the
    /// simulation outcome is unaffected either way).
    #[must_use]
    pub fn measure_overhead(mut self, measure: bool) -> Self {
        self.measure_overhead = measure;
        self
    }

    /// Enable the search engine's stage-scoped self-profiler and emit one
    /// [`TraceEvent::PhaseProfiled`] per search phase: wall nanoseconds
    /// attributed to each pipeline stage (one per
    /// [`paragon_des::trace::Stage`]). Off by default for the same reason as
    /// [`DriverConfig::measure_overhead`]: wall time is nondeterministic,
    /// so enabling it makes traces differ between repeat runs. The
    /// simulation outcome is bit-identical either way (pinned by the
    /// profiled differential suite), and like tracing itself the disabled
    /// profiler costs only a predictable branch per stage span.
    #[must_use]
    pub fn profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// The topology when it has shards to name: one of two or more nodes
    /// (a one-node topology is the flat machine).
    fn shards(&self) -> Option<&TopologySpec> {
        self.comm.topology().filter(|t| t.nodes() >= 2)
    }
}

/// Runs a task set to completion under one configuration.
#[derive(Debug, Clone)]
pub struct Driver {
    config: DriverConfig,
}

impl Driver {
    /// Creates a driver.
    #[must_use]
    pub fn new(config: DriverConfig) -> Self {
        Driver { config }
    }

    /// Simulates the full lifetime of `tasks`: every task is eventually
    /// either executed (and, by the paper's theorem, meets its deadline on a
    /// fault-free platform), dropped once its deadline can no longer be met,
    /// or — under fault injection — lost mid-execution to a processor
    /// failure.
    ///
    /// Deterministic: identical inputs and seed produce identical reports,
    /// fault plan included.
    #[must_use]
    pub fn run(&self, tasks: Vec<Task>) -> RunReport {
        self.run_traced(tasks, &mut Tracer::disabled())
    }

    /// Like [`Driver::run`], but emits [`TraceEvent`]s to `tracer` as the
    /// simulation progresses: phase boundaries, drops, and task
    /// start/completion (completion events are emitted at delivery time,
    /// timestamped with their — possibly later — execution instants).
    #[must_use]
    pub fn run_traced(&self, tasks: Vec<Task>, tracer: &mut impl TraceSink) -> RunReport {
        let mut run = Run::new(&self.config, tasks, tracer);
        loop {
            run.apply_faults(tracer);
            run.ingest(tracer);
            let dropped = run.expire(tracer);
            if run.batch.is_empty() {
                if run.idle_jump() {
                    continue;
                }
                break;
            }
            let quantum = run.allot();
            let mut phase = run.search(quantum, tracer);
            run.emit_decisions(&mut phase, tracer);
            run.deliver(&mut phase, tracer);
            run.emit_deliveries(&phase, tracer);
            run.record_phase(&mut phase, dropped);
            run.fast_forward(&phase);
        }
        run.report()
    }
}

/// Processor faults applied, tasks orphaned and tasks lost in flight.
#[derive(Default)]
struct Fallout {
    faults: usize,
    orphaned: usize,
    lost: usize,
}

/// The state a run carries from step to step and from phase to phase.
struct Run<'a> {
    cfg: &'a DriverConfig,
    machine: Machine,
    rng: SimRng,
    /// Spike windows and in-flight policy; the events are in `fault_events`.
    plan: FaultPlan,
    fault_events: Peekable<vec::IntoIter<FaultEvent>>,
    loss_rng: SimRng,
    /// The fallout since the last phase record. The run's totals are the
    /// records' tallies, plus this when no phase ever ran.
    fallout: Fallout,
    total_tasks: usize,
    arrivals: Peekable<vec::IntoIter<Task>>,
    /// One batch for the whole run, reserved for all of its tasks: each
    /// phase removes its scheduled and expired tasks in place and arrivals
    /// are pushed onto the survivors.
    batch: Batch,
    /// The current instant; during a phase, its start `t_s`.
    now: Time,
    dropped: usize,
    phases: Vec<PhaseRecord>,
    /// One scratch for the whole run: after the first few phases every
    /// buffer has reached its high-water capacity and scheduling phases
    /// stop allocating entirely (see `PhaseScratch`).
    scratch: PhaseScratch,
    initial_finish: Vec<Time>,
    /// Batch positions of the phase's delivered tasks, sorted.
    delivered_at: Vec<usize>,
    processors_seen: Vec<bool>,
}

/// What one phase's steps hand on, from its search to its record.
struct Phase {
    quantum: Duration,
    consumed: Duration,
    ended: Time,
    wall_ns: Option<u64>,
    outcome: SearchOutcome,
    /// Assignments the search planned, those a spike will lose included.
    planned: usize,
    processors_used: usize,
}

impl<'a> Run<'a> {
    fn new(cfg: &'a DriverConfig, mut tasks: Vec<Task>, tracer: &impl TraceSink) -> Self {
        tasks.sort_by_key(|t| (t.arrival(), t.id()));
        // The plan and the loss stream are children of the run seed apart
        // from the algorithm's stream, so a disabled fault config is
        // bit-identical to a fault-free run (DESIGN.md §9).
        let mut plan = cfg.fault_plan.clone().unwrap_or_else(|| {
            cfg.faults
                .sample_plan_topo(cfg.workers, cfg.comm.topology(), cfg.seed)
        });
        let mut scratch = PhaseScratch::new();
        // Profiling follows the tracer: without a sink there is nowhere to
        // put the record, and the search must stay clock-free.
        let profiling = cfg.profile && tracer.enabled();
        scratch.search.set_profiling(profiling);
        Run {
            cfg,
            machine: Machine::new(MachineConfig {
                workers: cfg.workers,
                comm: cfg.comm,
            }),
            rng: SimRng::seed_from(cfg.seed),
            fault_events: std::mem::take(&mut plan.events).into_iter().peekable(),
            plan,
            loss_rng: faults::loss_stream(cfg.workers, cfg.seed),
            fallout: Fallout::default(),
            total_tasks: tasks.len(),
            batch: Batch::with_capacity(0, tasks.len()),
            arrivals: tasks.into_iter().peekable(),
            now: Time::ZERO,
            dropped: 0,
            phases: Vec::new(),
            scratch,
            initial_finish: Vec::new(),
            delivered_at: Vec::new(),
            processors_seen: Vec::new(),
        }
    }

    /// Applies the fault events due by `now`, which is exact even for an
    /// earlier instant because a worker keeps every slot it ever admitted
    /// (DESIGN.md §9). A retroactive failure retracts completions whose
    /// start and completion events were already emitted; the orphan and loss
    /// events emitted here supersede them. Orphans re-enter the batch.
    fn apply_faults(&mut self, tracer: &mut impl TraceSink) {
        let keep_in_flight = self.plan.in_flight == InFlightPolicy::Completes;
        while let Some(ev) = self.fault_events.next_if(|e| e.at <= self.now) {
            let processor = ev.processor.index();
            match ev.kind {
                FaultKind::Down { fail_stop } => {
                    // A node crash and an independent per-processor failure
                    // can target the same (already down) processor; the
                    // second hit is a no-op and is not counted as a fault.
                    // Likewise a recovery for a processor a later stream
                    // already revived.
                    if self.machine.is_down(ev.processor) {
                        continue;
                    }
                    let failed = self.machine.fail(ev.processor, ev.at, keep_in_flight);
                    let lost = usize::from(failed.lost.is_some());
                    self.fallout.faults += 1;
                    self.fallout.orphaned += failed.orphaned.len();
                    self.fallout.lost += lost;
                    if tracer.enabled() {
                        tracer.emit(
                            ev.at,
                            TraceEvent::ProcessorFailed {
                                processor,
                                fail_stop,
                                orphaned: failed.orphaned.len(),
                                lost,
                            },
                        );
                        for (task, _) in &failed.orphaned {
                            let task = task.id().as_u64();
                            tracer.emit(ev.at, TraceEvent::TaskOrphaned { task, processor });
                        }
                        if let Some((task, _)) = &failed.lost {
                            let task = task.id().as_u64();
                            tracer.emit(ev.at, TraceEvent::TaskLost { task, processor });
                        }
                    }
                    for (task, _) in failed.orphaned {
                        self.batch.push(task);
                    }
                }
                FaultKind::Up => {
                    if !self.machine.is_down(ev.processor) {
                        continue;
                    }
                    self.machine.recover(ev.processor, ev.at);
                    if tracer.enabled() {
                        tracer.emit(ev.at, TraceEvent::ProcessorRecovered { processor });
                    }
                }
            }
        }
    }

    /// Moves everything that has arrived by `now` into the batch.
    fn ingest(&mut self, tracer: &mut impl TraceSink) {
        while let Some(t) = self.arrivals.next_if(|t| t.arrival() <= self.now) {
            if tracer.enabled() {
                // The first link of the task's decision chain: the
                // parameters every later feasibility test uses.
                tracer.emit(
                    self.now,
                    TraceEvent::TaskAdmitted {
                        task: t.id().as_u64(),
                        arrival_us: t.arrival().as_micros(),
                        deadline_us: t.deadline().as_micros(),
                        processing_us: t.processing_time().as_micros(),
                    },
                );
            }
            self.batch.push(t);
        }
    }

    /// Drops the tasks that can no longer meet their deadlines; returns how many.
    fn expire(&mut self, tracer: &mut impl TraceSink) -> usize {
        let dropped = self.batch.drop_expired(self.now, |t| {
            if tracer.enabled() {
                let task = t.id().as_u64();
                tracer.emit(self.now, TraceEvent::TaskDropped { task });
            }
        });
        self.dropped += dropped;
        dropped
    }

    /// With the batch empty, idles until the next arrival or the next fault
    /// event that can still touch queued or running work: one past every
    /// worker's busy horizon can neither orphan nor lose anything, and with
    /// no arrivals left a recovery is moot. `false` means the run is over.
    fn idle_jump(&mut self) -> bool {
        let next_arrival = self.arrivals.peek().map(Task::arrival);
        let workers = self.machine.iter_workers();
        let busy_horizon = workers.map(|w| w.busy_until()).max().unwrap_or(Time::ZERO);
        let next_fault = self.fault_events.peek().map(|e| e.at);
        let next_fault = next_fault.filter(|&f| f < busy_horizon);
        let Some(next) = next_arrival.into_iter().chain(next_fault).min() else {
            return false;
        };
        self.now = next;
        true
    }

    /// The phase's quantum `Q_s(j)`, floored so that one full expansion
    /// (workers + 1 vertex evaluations) fits in every phase.
    fn allot(&self) -> Duration {
        let cfg = self.cfg;
        let floor = cfg.host.vertex_eval_cost * (cfg.workers as u64 + 1);
        let quantum = cfg.quantum.allocate(&self.batch, self.now, &self.machine);
        quantum.max(floor)
    }

    /// Runs phase `j`'s search from `t_s = now` within `quantum`.
    /// `PhaseStarted` comes first and nothing is emitted until the search
    /// returns; the overhead probe times `schedule_phase` alone. The phase
    /// lasts at least 1 µs and one vertex evaluation, so time advances.
    fn search(&mut self, quantum: Duration, tracer: &mut impl TraceSink) -> Phase {
        let cfg = self.cfg;
        let started = self.now;
        let traced = tracer.enabled();
        if traced {
            tracer.emit(
                started,
                TraceEvent::PhaseStarted {
                    phase: self.batch.phase(),
                    batch_len: self.batch.len(),
                    quantum,
                },
            );
        }
        let mut meter = SchedulingMeter::new(cfg.host, quantum);
        let exec_bound = started + quantum;
        // Down workers report `UNAVAILABLE` here, so the feasibility test
        // screens them out of every placement.
        let workers = self.machine.iter_workers();
        self.initial_finish.clear();
        self.initial_finish
            .extend(workers.map(|w| w.available_from(exec_bound)));
        let input = PhaseInput {
            batch: &self.batch,
            comm: &cfg.comm,
            initial_finish: &self.initial_finish,
            vertex_cap: cfg.vertex_cap,
            backtrack_limit: cfg.backtrack_limit,
            resources: self.machine.resource_eats(),
            provenance: traced,
        };
        let wall_start = (cfg.measure_overhead && traced).then(rt_telemetry::MonotonicInstant::now);
        let outcome =
            cfg.algorithm
                .schedule_phase(&input, &mut meter, &mut self.rng, &mut self.scratch);
        let wall_ns = wall_start.map(|t0| t0.elapsed_ns());
        let min_step = Duration::from_micros(1).max(cfg.host.vertex_eval_cost);
        let consumed = meter.consumed().max(min_step);
        Phase {
            quantum,
            consumed,
            ended: started + consumed,
            wall_ns,
            planned: outcome.assignments.len(),
            processors_used: outcome.processors_used(&mut self.processors_seen),
            outcome,
        }
    }

    /// Emits the phase's decision provenance, wall-clock overhead and stage
    /// profile while the outcome's batch indices still resolve. The search
    /// wrote its evidence as the trace's own probe records, so they move
    /// into the events as they are.
    fn emit_decisions(&mut self, phase: &mut Phase, tracer: &mut impl TraceSink) {
        if !tracer.enabled() {
            return;
        }
        let (j, at) = (self.batch.phase(), phase.ended);
        if let Some(prov) = phase.outcome.provenance.take() {
            for s in prov.screened {
                let t = &self.batch.tasks()[s.task];
                tracer.emit(
                    at,
                    TraceEvent::TaskScreened {
                        task: t.id().as_u64(),
                        phase: j,
                        deadline_us: t.deadline().as_micros(),
                        probes: s.probes,
                    },
                );
            }
            for d in prov.decisions {
                tracer.emit(
                    at,
                    TraceEvent::PlacementDecided {
                        task: self.batch.tasks()[d.task].id().as_u64(),
                        phase: j,
                        processor: d.chosen.processor,
                        completion_us: d.chosen.completion_us,
                        cost_us: d.chosen.cost_us,
                        shard: self.cfg.shards().map(|_| d.chosen.shard),
                        rejected: d.rejected,
                    },
                );
            }
        }
        if let Some(wall_ns) = phase.wall_ns {
            tracer.emit(
                at,
                TraceEvent::SchedulerOverhead {
                    phase: j,
                    allocated_us: phase.quantum.as_micros(),
                    wall_ns,
                },
            );
        }
        if self.cfg.profile {
            // Drained every phase so stage times never leak across phases;
            // baselines (which never enter the search engine) leave an
            // all-zero record that is not emitted.
            let profile = self.scratch.search.take_profile();
            if profile.total_ns() > 0 {
                tracer.emit(at, TraceEvent::PhaseProfiled { phase: j, profile });
            }
        }
    }

    /// Delivers the phase's schedule at its end. Inside a communication spike
    /// the message pays `spike_delay` and each dispatch is lost with
    /// probability `spike_loss`; a lost task never leaves the host, and
    /// re-enters the next phase from the batch as an orphan.
    fn deliver(&mut self, phase: &mut Phase, tracer: &mut impl TraceSink) {
        let ended = phase.ended;
        let (delay, loss) = if self.plan.in_spike(ended) {
            (self.plan.spike_delay, self.plan.spike_loss)
        } else {
            (Duration::ZERO, 0.0)
        };
        phase.outcome.assignments.retain(|a| {
            let lost = loss > 0.0 && self.loss_rng.bernoulli(loss);
            if lost {
                self.fallout.orphaned += 1;
                if tracer.enabled() {
                    let task = self.batch.tasks()[a.task].id().as_u64();
                    let processor = a.processor.index();
                    tracer.emit(ended, TraceEvent::TaskOrphaned { task, processor });
                }
            }
            !lost
        });
        // Each delivered task is cloned once, into its worker's slot.
        self.machine.deliver(
            phase.outcome.assignments.iter().map(|a| Dispatch {
                task: self.batch.tasks()[a.task].clone(),
                processor: a.processor,
            }),
            ended + delay,
        );
        self.delivered_at.clear();
        self.delivered_at
            .extend(phase.outcome.assignments.iter().map(|a| a.task));
        self.delivered_at.sort_unstable();
    }

    /// The positions of the undelivered batch tasks whose deadlines lapsed
    /// *while* the phase ending at `ended` computed, read off the expiry
    /// column: the next phase start drops them, but telemetry sees the
    /// expiry when it became unavoidable. A `Filter`, so that `count` is
    /// branch-free.
    fn lapsed(&self, ended: Time) -> impl Iterator<Item = usize> + '_ {
        let delivered = |i: &usize| self.delivered_at.binary_search(i).is_ok();
        let expiry = self.batch.expiry().iter().enumerate();
        expiry
            .filter(move |&(i, &e)| e <= ended && !delivered(&i))
            .map(|(i, _)| i)
    }

    /// Emits the phase's end, its mid-phase expiries and each delivery, while
    /// the delivered tasks are still in the batch and their completion
    /// records are the last of the machine's.
    fn emit_deliveries(&self, phase: &Phase, tracer: &mut impl TraceSink) {
        if !tracer.enabled() {
            return;
        }
        let (j, ended, outcome) = (self.batch.phase(), phase.ended, &phase.outcome);
        tracer.emit(
            ended,
            TraceEvent::PhaseEnded {
                phase: j,
                scheduled: outcome.assignments.len(),
                consumed: phase.consumed,
                vertices: outcome.stats.vertices_generated,
                backtracks: outcome.stats.backtracks,
                undos: outcome.stats.undos,
                replay_avoided: outcome.stats.replay_avoided,
            },
        );
        for i in self.lapsed(ended) {
            let task = self.batch.tasks()[i].id().as_u64();
            tracer.emit(ended, TraceEvent::TaskExpiredMidPhase { task, phase: j });
        }
        let completions = self.machine.completions();
        let records = &completions[completions.len() - outcome.assignments.len()..];
        for (r, a) in records.iter().zip(&outcome.assignments) {
            let (task, processor) = (r.task.as_u64(), r.processor.index());
            let slack_us = r.deadline.as_micros() as i64 - r.start.as_micros() as i64;
            tracer.emit(
                ended,
                TraceEvent::TaskDispatched {
                    task,
                    processor,
                    slack_us,
                },
            );
            let processing = self.batch.tasks()[a.task].processing_time();
            let comm_delay = r.service.saturating_sub(processing);
            if !comm_delay.is_zero() {
                tracer.emit(
                    r.start,
                    TraceEvent::CommDelay {
                        task,
                        processor,
                        delay_us: comm_delay.as_micros(),
                    },
                );
            }
            tracer.emit(r.start, TraceEvent::TaskStarted { task, processor });
            let lateness_us = r.completion.as_micros() as i64 - r.deadline.as_micros() as i64;
            tracer.emit(
                r.completion,
                TraceEvent::TaskCompleted {
                    task,
                    processor,
                    met_deadline: r.met_deadline,
                    lateness_us,
                },
            );
        }
    }

    /// Records the phase, takes its delivered tasks out of the batch and
    /// moves the clock to the phase's end.
    fn record_phase(&mut self, phase: &mut Phase, dropped: usize) {
        let expired_mid_phase = self.lapsed(phase.ended).count();
        self.batch.remove_sorted(&self.delivered_at);
        let (scheduled, stats) = (phase.outcome.assignments.len(), phase.outcome.stats);
        let fallout = std::mem::take(&mut self.fallout);
        self.phases.push(PhaseRecord {
            phase: self.batch.phase(),
            started: self.now,
            batch_len: self.batch.len() + scheduled,
            dropped,
            expired_mid_phase,
            quantum: phase.quantum,
            consumed: phase.consumed,
            vertices: stats.vertices_generated,
            backtracks: stats.backtracks,
            undos: stats.undos,
            replay_avoided: stats.replay_avoided,
            deepest: stats.deepest,
            scheduled,
            processors_used: phase.processors_used,
            termination: phase.outcome.termination,
            orphaned: fallout.orphaned,
            lost_in_flight: fallout.lost,
            faults: fallout.faults,
        });
        // Return the assignment buffer to the pool so the next phase can
        // reuse its capacity instead of allocating a fresh one.
        self.scratch
            .recycle(std::mem::take(&mut phase.outcome.assignments));
        self.batch.advance_phase();
        self.now = phase.ended;
    }

    /// After a phase that planned nothing, jumps the clock to the next event
    /// that changes the problem (DESIGN.md §6, decision 4): an arrival or a
    /// *future* task expiry. Tasks already expired at `now` lapsed mid-phase
    /// and are dropped at the next phase start; anchored on them, the target
    /// would land at or before `now` and the driver would grind through a
    /// no-op phase. The gate is the planned count, not the delivered one: a
    /// phase whose dispatches a spike lost drew from the loss stream, so the
    /// next phase is not identical. And a jump never crosses a pending fault
    /// event, which changes the processor set and so the search's outcome.
    fn fast_forward(&mut self, phase: &Phase) {
        if phase.planned > 0 {
            return;
        }
        let now = self.now;
        let next_arrival = self.arrivals.peek().map(Task::arrival);
        let expiry = self.batch.expiry().iter().copied();
        let next_expiry = expiry.filter(|&e| e > now).min();
        let next_fault = self.fault_events.peek().map(|e| e.at);
        if let Some(target) = next_arrival.into_iter().chain(next_expiry).min() {
            self.now = now.max(next_fault.map_or(target, |f| target.min(f)));
        }
    }

    /// The run's report. Fault fallout observed after the last phase
    /// boundary (e.g. an in-flight loss on an otherwise-empty machine) has no
    /// next phase to report it, so the final record absorbs it, and the
    /// records' tallies sum to the run totals.
    fn report(mut self) -> RunReport {
        if let Some(last) = self.phases.last_mut() {
            let rest = std::mem::take(&mut self.fallout);
            last.orphaned += rest.orphaned;
            last.lost_in_flight += rest.lost;
            last.faults += rest.faults;
        }
        let total = |tally: fn(&PhaseRecord) -> usize| self.phases.iter().map(tally).sum::<usize>();
        let orphaned = total(|p| p.orphaned) + self.fallout.orphaned;
        let lost_in_flight = total(|p| p.lost_in_flight) + self.fallout.lost;
        let faults_seen = total(|p| p.faults) + self.fallout.faults;
        let machine = self.machine;
        let hits = machine.deadline_hits();
        let executed_misses = machine.completions().len() - hits;
        let completions = machine.completions().iter();
        let finished_at = completions.map(|c| c.completion).max().unwrap_or(self.now);
        let worker_busy: Vec<Duration> = machine.iter_workers().map(|w| w.busy_time()).collect();
        RunReport {
            algorithm: self.cfg.algorithm.name().to_string(),
            total_tasks: self.total_tasks,
            hits,
            dropped: self.dropped,
            executed_misses,
            phases: self.phases,
            workers_used: machine.workers_used(),
            worker_idle: machine
                .iter_workers()
                .map(|w| w.idle_time(finished_at))
                .collect(),
            // Per-shard totals only exist on genuinely sharded platforms;
            // flat runs (including 1-node topologies) keep the field empty
            // so their reports stay bit-identical to pre-topology ones.
            shard_busy: self.cfg.shards().map_or_else(Vec::new, |t| {
                let busy = |(lo, hi): (usize, usize)| worker_busy[lo..hi].iter().copied().sum();
                (0..t.nodes()).map(|n| busy(t.node_range(n))).collect()
            }),
            worker_busy,
            // Moves the records out of the machine, after the per-worker
            // totals above have read it.
            completions: machine.into_completions(),
            finished_at,
            orphaned,
            lost_in_flight,
            faults_seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_task::{AffinitySet, ProcessorId, TaskId};

    fn mk_task(id: u64, p_ms: u64, a_ms: u64, d_ms: u64, workers: usize) -> Task {
        Task::builder(TaskId::new(id))
            .processing_time(Duration::from_millis(p_ms))
            .arrival(Time::from_millis(a_ms))
            .deadline(Time::from_millis(d_ms))
            .affinity(AffinitySet::all(workers))
            .build()
    }

    #[test]
    fn empty_task_set_runs_to_empty_report() {
        let report = Driver::new(DriverConfig::new(2, Algorithm::rt_sads())).run(vec![]);
        assert_eq!(report.total_tasks, 0);
        assert_eq!(report.hits, 0);
        assert!(report.phases.is_empty());
        assert!(report.is_consistent());
    }

    #[test]
    fn all_feasible_tasks_hit_their_deadlines() {
        let tasks: Vec<Task> = (0..20).map(|i| mk_task(i, 1, 0, 200, 4)).collect();
        let report = Driver::new(DriverConfig::new(4, Algorithm::rt_sads())).run(tasks);
        assert_eq!(report.hits, 20);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.executed_misses, 0);
        assert!(report.is_consistent());
        assert!((report.hit_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn theorem_no_scheduled_task_misses() {
        // Overloaded: 50 tasks x 5ms on 2 workers with 30ms deadlines.
        // Many will be dropped, but none that executes may miss.
        let tasks: Vec<Task> = (0..50).map(|i| mk_task(i, 5, 0, 30, 2)).collect();
        for algorithm in [Algorithm::rt_sads(), Algorithm::d_cols()] {
            let report = Driver::new(DriverConfig::new(2, algorithm)).run(tasks.clone());
            assert_eq!(report.executed_misses, 0, "theorem violated");
            assert!(report.dropped > 0, "overload must drop something");
            assert!(report.is_consistent());
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let tasks: Vec<Task> = (0..30).map(|i| mk_task(i, 2, i % 7, 60 + i, 3)).collect();
        let run =
            || Driver::new(DriverConfig::new(3, Algorithm::rt_sads()).seed(42)).run(tasks.clone());
        let a = run();
        let b = run();
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.phases.len(), b.phases.len());
    }

    #[test]
    fn later_arrivals_enter_later_batches() {
        let mut tasks = vec![mk_task(0, 2, 0, 100, 2)];
        tasks.push(mk_task(1, 2, 50, 150, 2));
        let report = Driver::new(DriverConfig::new(2, Algorithm::rt_sads())).run(tasks);
        assert_eq!(report.hits, 2);
        assert!(report.phases.len() >= 2, "idle gap forces a second phase");
        let c1 = report
            .completions
            .iter()
            .find(|c| c.task == TaskId::new(1))
            .unwrap();
        assert!(c1.start >= Time::from_millis(50));
    }

    #[test]
    fn time_always_advances_under_zero_slack() {
        // Tasks with zero slack and an idle machine give Q_s = 0; the
        // driver's floor must still make progress and expire them.
        let tasks: Vec<Task> = (0..5).map(|i| mk_task(i, 10, 0, 10, 1)).collect();
        let report = Driver::new(DriverConfig::new(1, Algorithm::rt_sads())).run(tasks);
        assert!(report.is_consistent());
        // With the quantum floor, at most one can be scheduled in time.
        assert!(report.hits <= 1);
        assert!(report.dropped >= 4);
    }

    #[test]
    fn affinity_restricts_placement_under_tight_deadlines() {
        // Tasks affine to P1 only; deadline too tight to pay C elsewhere.
        let tasks: Vec<Task> = (0..3)
            .map(|i| {
                Task::builder(TaskId::new(i))
                    .processing_time(Duration::from_millis(1))
                    .deadline(Time::from_millis(20))
                    .affinity(AffinitySet::from_iter([ProcessorId::new(1)]))
                    .build()
            })
            .collect();
        let config = DriverConfig::new(3, Algorithm::rt_sads())
            .comm(CommModel::constant(Duration::from_millis(100)));
        let report = Driver::new(config).run(tasks);
        assert_eq!(report.hits, 3);
        for c in &report.completions {
            assert_eq!(c.processor, ProcessorId::new(1));
        }
        assert_eq!(report.workers_used, 1);
    }

    #[test]
    fn greedy_and_random_also_account_consistently() {
        let tasks: Vec<Task> = (0..25).map(|i| mk_task(i, 3, 0, 40, 3)).collect();
        for algorithm in [Algorithm::GreedyEdf, Algorithm::RandomAssign] {
            let report = Driver::new(DriverConfig::new(3, algorithm).seed(9)).run(tasks.clone());
            assert!(report.is_consistent());
            assert_eq!(report.executed_misses, 0);
        }
    }

    #[test]
    fn rt_sads_beats_d_cols_under_low_affinity() {
        // A miniature Figure 5 point: low replication (each task affine to
        // exactly one worker), tight deadlines, constant C too large to pay.
        let workers = 4;
        let tasks: Vec<Task> = (0..40)
            .map(|i| {
                Task::builder(TaskId::new(i))
                    .processing_time(Duration::from_millis(2))
                    .deadline(Time::from_millis(30))
                    .affinity(AffinitySet::from_iter([ProcessorId::new(
                        (i % workers as u64) as usize,
                    )]))
                    .build()
            })
            .collect();
        let comm = CommModel::constant(Duration::from_millis(50));
        let sads = Driver::new(DriverConfig::new(workers, Algorithm::rt_sads()).comm(comm))
            .run(tasks.clone());
        let cols =
            Driver::new(DriverConfig::new(workers, Algorithm::d_cols()).comm(comm)).run(tasks);
        assert!(
            sads.hits >= cols.hits,
            "RT-SADS ({}) should not lose to D-COLS ({})",
            sads.hits,
            cols.hits
        );
    }

    #[test]
    #[should_panic(expected = "at least one working processor")]
    fn zero_workers_rejected() {
        let _ = DriverConfig::new(0, Algorithm::rt_sads());
    }

    #[test]
    fn idle_fast_forward_skips_past_mid_phase_expired_stragglers() {
        // One worker, 5ms per-vertex cost, so the quantum floor is 10ms and
        // the first phase's execution bound starts at 10ms: both early tasks
        // are screened and nothing is scheduled. Task 0 (start by 1ms)
        // lapses *during* that phase and stays in the batch; task 1 (start
        // by 7ms) expires later; task 2 arrives at 50ms and is easy.
        //
        // The fast-forward must anchor on task 1's future expiry, not task
        // 0's past one — with the stale anchor the jump target lies before
        // `now` and the driver runs a wasted no-op phase against {task 1}
        // before time can advance.
        let tasks = vec![
            mk_task(0, 1, 0, 2, 1),
            mk_task(1, 1, 0, 8, 1),
            mk_task(2, 1, 50, 200, 1),
        ];
        let config = DriverConfig::new(1, Algorithm::rt_sads())
            .host(HostParams::new(Duration::from_millis(5)));
        let report = Driver::new(config).run(tasks);
        assert!(report.is_consistent());
        assert_eq!(report.dropped, 2, "both early tasks expire");
        assert_eq!(report.hits, 1, "the late arrival is scheduled");
        assert_eq!(
            report.phases.len(),
            2,
            "one screened phase, one for the late arrival — no wasted \
             no-op phase between them"
        );
    }

    #[test]
    fn traced_runs_emit_a_consistent_event_stream() {
        use paragon_des::trace::{RecordingTracer, TraceEvent};
        let tasks: Vec<Task> = (0..12).map(|i| mk_task(i, 2, 0, 25, 2)).collect();
        let mut tracer = RecordingTracer::new();
        let report =
            Driver::new(DriverConfig::new(2, Algorithm::rt_sads())).run_traced(tasks, &mut tracer);

        let starts = tracer.count_matching(|e| matches!(e, TraceEvent::PhaseStarted { .. }));
        let ends = tracer.count_matching(|e| matches!(e, TraceEvent::PhaseEnded { .. }));
        assert_eq!(starts, report.phases.len());
        assert_eq!(ends, report.phases.len());
        let completed = tracer.count_matching(|e| matches!(e, TraceEvent::TaskCompleted { .. }));
        assert_eq!(completed, report.completions.len());
        let dropped = tracer.count_matching(|e| matches!(e, TraceEvent::TaskDropped { .. }));
        assert_eq!(dropped, report.dropped);
        // a traced run and an untraced run agree
        let plain = Driver::new(DriverConfig::new(2, Algorithm::rt_sads()))
            .run((0..12).map(|i| mk_task(i, 2, 0, 25, 2)).collect());
        assert_eq!(plain.hits, report.hits);
    }

    #[test]
    fn tracing_is_free_when_disabled() {
        /// A sink that declines events and counts those emitted anyway.
        struct Declining(usize);
        impl TraceSink for Declining {
            fn emit(&mut self, _now: Time, _event: TraceEvent) {
                self.0 += 1;
            }
            fn enabled(&self) -> bool {
                false
            }
        }
        let tasks: Vec<Task> = (0..30).map(|i| mk_task(i, 2, i % 5, 80, 3)).collect();
        let plain = Driver::new(DriverConfig::new(3, Algorithm::rt_sads())).run(tasks.clone());
        // The profiler and the wall-clock overhead probe arm only under an
        // enabled sink: a declining one is handed nothing and moves nothing.
        let mut sink = Declining(0);
        let armed = Driver::new(
            DriverConfig::new(3, Algorithm::rt_sads())
                .profile(true)
                .measure_overhead(true),
        )
        .run_traced(tasks, &mut sink);
        assert_eq!(sink.0, 0);
        assert_eq!(armed, plain);
    }

    // ---- fault injection ----

    use crate::faults::{FaultEvent, FaultKind, FaultPlan, InFlightPolicy};

    fn down(at_ms: u64, p: usize, fail_stop: bool) -> FaultEvent {
        FaultEvent {
            at: Time::from_millis(at_ms),
            processor: ProcessorId::new(p),
            kind: FaultKind::Down { fail_stop },
        }
    }

    fn plan(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan {
            events,
            ..FaultPlan::empty()
        }
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_no_fault_support() {
        let tasks: Vec<Task> = (0..30).map(|i| mk_task(i, 2, i % 5, 80, 3)).collect();
        let base =
            Driver::new(DriverConfig::new(3, Algorithm::rt_sads()).seed(7)).run(tasks.clone());
        let explicit = Driver::new(
            DriverConfig::new(3, Algorithm::rt_sads())
                .seed(7)
                .fault_plan(FaultPlan::empty()),
        )
        .run(tasks.clone());
        let disabled = Driver::new(
            DriverConfig::new(3, Algorithm::rt_sads())
                .seed(7)
                .faults(crate::faults::FaultConfig::disabled()),
        )
        .run(tasks);
        for other in [&explicit, &disabled] {
            assert_eq!(base.completions, other.completions);
            assert_eq!(base.phases, other.phases);
            assert_eq!(base.hits, other.hits);
            assert_eq!(other.faults_seen, 0);
            assert_eq!(other.orphaned, 0);
            assert_eq!(other.lost_in_flight, 0);
        }
    }

    #[test]
    fn fail_stop_orphans_queued_work_onto_the_survivor() {
        // 20 generous tasks on 2 workers; P0 dies at 10ms. Work queued on
        // P0 must migrate to P1 and still finish; nothing completes on P0
        // after the failure instant.
        let tasks: Vec<Task> = (0..20).map(|i| mk_task(i, 5, 0, 400, 2)).collect();
        let config =
            DriverConfig::new(2, Algorithm::rt_sads()).fault_plan(plan(vec![down(10, 0, true)]));
        let report = Driver::new(config).run(tasks);
        assert!(report.is_consistent());
        assert_eq!(report.faults_seen, 1);
        assert!(report.orphaned > 0, "P0's queue must orphan");
        assert_eq!(report.dropped, 0, "deadlines are generous");
        assert_eq!(
            report.hits + report.executed_misses + report.lost_in_flight,
            20
        );
        let fail_at = Time::from_millis(10);
        for c in &report.completions {
            if c.processor == ProcessorId::new(0) {
                assert!(c.completion <= fail_at, "no completion on a dead P0");
            }
        }
        assert_eq!(report.total_phase_orphaned(), report.orphaned);
    }

    #[test]
    fn losing_the_only_worker_drops_the_orphans() {
        let tasks: Vec<Task> = (0..3).map(|i| mk_task(i, 5, 0, 100, 1)).collect();
        let config = DriverConfig::new(1, Algorithm::rt_sads()).fault_plan(FaultPlan {
            events: vec![FaultEvent {
                at: Time::from_micros(1),
                processor: ProcessorId::new(0),
                kind: FaultKind::Down { fail_stop: true },
            }],
            ..FaultPlan::empty()
        });
        let report = Driver::new(config).run(tasks);
        assert!(report.is_consistent());
        assert_eq!(report.faults_seen, 1);
        assert_eq!(report.hits, 0);
        // The idle-machine quantum is the full slack, so the first phase's
        // execution bound admits only one dispatch before the failure; it
        // orphans, and everything ends up dropped.
        assert!(report.orphaned >= 1, "delivery postdates the failure");
        assert_eq!(report.dropped, 3, "no processor left to run them");
        assert_eq!(report.lost_in_flight, 0);
    }

    #[test]
    fn in_flight_policy_decides_loss_or_completion() {
        // One 50ms task; the worker dies at 20ms, mid-execution.
        let mk = |policy| {
            let tasks = vec![mk_task(0, 50, 0, 500, 1)];
            let config = DriverConfig::new(1, Algorithm::rt_sads()).fault_plan(FaultPlan {
                events: vec![down(20, 0, true)],
                in_flight: policy,
                ..FaultPlan::empty()
            });
            Driver::new(config).run(tasks)
        };
        let lost = mk(InFlightPolicy::Lost);
        assert!(lost.is_consistent());
        assert_eq!(lost.lost_in_flight, 1);
        assert_eq!(lost.hits, 0);
        assert!(lost.completions.is_empty());
        let kept = mk(InFlightPolicy::Completes);
        assert!(kept.is_consistent());
        assert_eq!(kept.lost_in_flight, 0);
        assert_eq!(kept.hits, 1);
    }

    #[test]
    fn recovery_restores_scheduling_capacity() {
        // P0 fails at 2ms and recovers at 10ms; a 20ms arrival must still
        // be scheduled (on the recovered processor — there is no other).
        let tasks = vec![mk_task(0, 1, 0, 50, 1), mk_task(1, 1, 20, 100, 1)];
        let config = DriverConfig::new(1, Algorithm::rt_sads()).fault_plan(FaultPlan {
            events: vec![
                down(2, 0, false),
                FaultEvent {
                    at: Time::from_millis(10),
                    processor: ProcessorId::new(0),
                    kind: FaultKind::Up,
                },
            ],
            ..FaultPlan::empty()
        });
        let report = Driver::new(config).run(tasks);
        assert!(report.is_consistent());
        assert_eq!(report.faults_seen, 1);
        assert_eq!(report.hits, 2);
    }

    #[test]
    fn spike_loss_orphans_dispatches_until_the_window_closes() {
        use crate::faults::SpikeWindow;
        let tasks: Vec<Task> = (0..5).map(|i| mk_task(i, 2, 0, 300, 2)).collect();
        let config = DriverConfig::new(2, Algorithm::rt_sads()).fault_plan(FaultPlan {
            spikes: vec![SpikeWindow {
                from: Time::ZERO,
                until: Time::from_micros(200),
            }],
            spike_loss: 1.0,
            ..FaultPlan::empty()
        });
        let report = Driver::new(config).run(tasks);
        assert!(report.is_consistent());
        assert!(report.orphaned > 0, "dispatches inside the window are lost");
        assert_eq!(report.hits, 5, "all complete once the window closes");
        assert_eq!(report.faults_seen, 0, "spikes are not processor faults");
    }

    #[test]
    fn spike_delay_defers_delivery() {
        use crate::faults::SpikeWindow;
        let tasks = vec![mk_task(0, 2, 0, 300, 1)];
        let config = DriverConfig::new(1, Algorithm::rt_sads()).fault_plan(FaultPlan {
            spikes: vec![SpikeWindow {
                from: Time::ZERO,
                until: Time::from_millis(10),
            }],
            spike_delay: Duration::from_millis(5),
            ..FaultPlan::empty()
        });
        let report = Driver::new(config).run(tasks);
        assert_eq!(report.hits, 1);
        assert!(
            report.completions[0].delivered >= Time::from_millis(5),
            "delivery pays the spike delay"
        );
    }

    #[test]
    fn traced_fault_run_emits_matching_events() {
        use paragon_des::trace::{RecordingTracer, TraceEvent};
        let tasks: Vec<Task> = (0..20).map(|i| mk_task(i, 5, 0, 400, 2)).collect();
        let config =
            DriverConfig::new(2, Algorithm::rt_sads()).fault_plan(plan(vec![down(10, 0, true)]));
        let mut tracer = RecordingTracer::new();
        let report = Driver::new(config).run_traced(tasks, &mut tracer);
        let failed = tracer.count_matching(|e| matches!(e, TraceEvent::ProcessorFailed { .. }));
        assert_eq!(failed, report.faults_seen);
        let orphans = tracer.count_matching(|e| matches!(e, TraceEvent::TaskOrphaned { .. }));
        assert_eq!(orphans, report.orphaned);
        let lost = tracer.count_matching(|e| matches!(e, TraceEvent::TaskLost { .. }));
        assert_eq!(lost, report.lost_in_flight);
    }

    #[test]
    fn sampled_fault_runs_stay_consistent_and_deterministic() {
        use crate::faults::FaultConfig;
        let tasks: Vec<Task> = (0..40).map(|i| mk_task(i, 3, i % 11, 120, 4)).collect();
        let cfg = || {
            DriverConfig::new(4, Algorithm::rt_sads())
                .seed(13)
                .faults(FaultConfig::fail_recover(8.0, Duration::from_millis(20)))
        };
        let a = Driver::new(cfg()).run(tasks.clone());
        let b = Driver::new(cfg()).run(tasks);
        assert!(a.is_consistent());
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.faults_seen, b.faults_seen);
        assert_eq!(a.orphaned, b.orphaned);
        assert_eq!(a.lost_in_flight, b.lost_in_flight);
    }

    #[test]
    fn sharded_run_reports_per_shard_busy_totals() {
        use rt_task::TopologySpec;
        let topo = TopologySpec::new(8, 4, 2, 0, 500, 1_000);
        let tasks: Vec<Task> = (0..24).map(|i| mk_task(i, 4, i % 7, 400, 8)).collect();
        let report = Driver::new(
            DriverConfig::new(8, Algorithm::rt_sads())
                .comm(CommModel::hierarchical(topo))
                .seed(5),
        )
        .run(tasks);
        assert!(report.is_consistent());
        assert_eq!(report.shard_busy.len(), 4);
        assert_eq!(
            report.shard_busy.iter().copied().sum::<Duration>(),
            report.worker_busy.iter().copied().sum::<Duration>(),
            "shard totals partition worker totals"
        );
        assert_eq!(report.shard_utilizations().len(), 4);
        // A 1-node topology is the flat machine: no shard breakdown, so its
        // report shape (and bytes) matches the pre-topology format.
        let flat = Driver::new(
            DriverConfig::new(8, Algorithm::rt_sads())
                .comm(CommModel::hierarchical(TopologySpec::flat(
                    8,
                    Duration::from_micros(500),
                )))
                .seed(5),
        )
        .run((0..24).map(|i| mk_task(i, 4, i % 7, 400, 8)).collect());
        assert!(flat.shard_busy.is_empty());
    }

    #[test]
    fn placement_shards_name_the_processors_nodes() {
        use paragon_des::trace::{RecordingTracer, TraceEvent};
        use rt_task::TopologySpec;
        // Traces 48 tasks on 16 processors under `comm`, checks each
        // decision's shard against `chosen` and each rejected probe's
        // against `node`, and returns the chosen shards seen.
        let check =
            |comm, chosen: &dyn Fn(usize) -> Option<usize>, node: &dyn Fn(usize) -> usize| {
                let tasks: Vec<Task> = (0..48).map(|i| mk_task(i, 4, i % 7, 90, 16)).collect();
                let mut tracer = RecordingTracer::new();
                let config = DriverConfig::new(16, Algorithm::rt_sads()).comm(comm);
                let _ = Driver::new(config).run_traced(tasks, &mut tracer);
                let (mut shards, mut alternatives) = (std::collections::BTreeSet::new(), 0);
                for (_, e) in tracer.events() {
                    if let TraceEvent::PlacementDecided {
                        processor,
                        shard,
                        rejected,
                        ..
                    } = e
                    {
                        assert_eq!(*shard, chosen(*processor), "P{processor}'s shard");
                        for r in rejected {
                            assert_eq!(r.shard, node(r.processor), "rejected P{}", r.processor);
                        }
                        shards.insert(*shard);
                        alternatives += rejected.len();
                    }
                }
                assert!(alternatives > 0, "no decision had alternatives");
                shards
            };
        // P=16 on 4 nodes: every label is the processor's node.
        let topo = TopologySpec::new(16, 4, 2, 0, 500, 1_000);
        let node = |p| topo.node_of(ProcessorId::new(p));
        let shards = check(CommModel::hierarchical(topo), &|p| Some(node(p)), &node);
        assert!(shards.len() > 1, "every placement went to one node");
        // The flat machine and a 1-node topology have no shards to name.
        let c = Duration::from_micros(500);
        for comm in [
            CommModel::constant(c),
            CommModel::hierarchical(TopologySpec::flat(16, c)),
        ] {
            check(comm, &|_| None, &|_| 0);
        }
    }

    #[test]
    fn node_faults_down_whole_shards_and_stay_deterministic() {
        use crate::faults::FaultConfig;
        use rt_task::TopologySpec;
        let topo = TopologySpec::new(6, 3, 1, 0, 200, 200);
        let tasks: Vec<Task> = (0..40).map(|i| mk_task(i, 3, i % 11, 200, 6)).collect();
        let cfg = || {
            DriverConfig::new(6, Algorithm::rt_sads())
                .comm(CommModel::hierarchical(topo))
                .seed(29)
                .faults(
                    // Processor and node failures together so the
                    // already-down guard sees overlapping streams.
                    FaultConfig::fail_recover(6.0, Duration::from_millis(15))
                        .node_faults(4.0, Some(Duration::from_millis(25))),
                )
        };
        let a = Driver::new(cfg()).run(tasks.clone());
        let b = Driver::new(cfg()).run(tasks);
        assert!(a.is_consistent());
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.faults_seen, b.faults_seen);
        assert!(a.faults_seen > 0, "the node streams must actually fire");
    }
}
