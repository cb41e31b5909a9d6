//! The end-to-end scheduler/executor loop: batches, phases, dispatch.
//!
//! The driver realizes the concurrency structure of Section 4: while the
//! working processors execute the previously delivered schedule `S_j`, the
//! host processor runs scheduling phase `j+1` over `Batch(j+1)`. In virtual
//! time this becomes a sequential loop — compute phase `j` at `t_s`, charge
//! its scheduling time, deliver `S_j` at `t_e = t_s + consumed`, repeat —
//! which is exact because worker queues are FIFO, non-preemptive and
//! append-only.

use paragon_des::trace::{TraceEvent, TraceSink, Tracer};
use paragon_des::{Duration, SimRng, Time};
use paragon_platform::{Dispatch, HostParams, Machine, MachineConfig, SchedulingMeter};
use rt_task::{Batch, CommModel, Task};

use sched_search::Pruning;

use crate::algorithm::{Algorithm, PhaseScratch};
use crate::faults::{self, FaultConfig, FaultKind, FaultPlan, InFlightPolicy};
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
    pruning: Pruning,
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
            pruning: Pruning::default(),
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

    /// Applies Section-3 pruning bounds (depth bound, backtrack limit) to
    /// the search-based algorithms.
    #[must_use]
    pub fn pruning(mut self, pruning: Pruning) -> Self {
        self.pruning = pruning;
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

    /// The configured fault model.
    #[must_use]
    pub fn fault_config(&self) -> &FaultConfig {
        &self.faults
    }

    /// The configured number of working processors.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured algorithm.
    #[must_use]
    pub fn algorithm(&self) -> &Algorithm {
        &self.algorithm
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
    pub fn run_traced(&self, mut tasks: Vec<Task>, tracer: &mut impl TraceSink) -> RunReport {
        let cfg = &self.config;
        let mut machine = Machine::new(MachineConfig {
            workers: cfg.workers,
            comm: cfg.comm,
        });
        let mut rng = SimRng::seed_from(cfg.seed);
        tasks.sort_by_key(|t| (t.arrival(), t.id()));
        let total_tasks = tasks.len();

        // Fault injection. The plan is sampled from a dedicated child of the
        // run seed (and the loss stream from another), so the algorithm's
        // own RNG sequence is untouched: a disabled config is bit-identical
        // to a fault-free run, not merely statistically equivalent.
        let plan: FaultPlan = cfg.fault_plan.clone().unwrap_or_else(|| {
            cfg.faults
                .sample_plan_topo(cfg.workers, cfg.comm.topology(), cfg.seed)
        });
        let keep_in_flight = plan.in_flight == InFlightPolicy::Completes;
        let mut loss_rng = faults::loss_stream(cfg.workers, cfg.seed);
        let mut plan_cursor = 0usize;
        let mut faults_seen = 0usize;
        let mut orphaned_total = 0usize;
        let mut lost_total = 0usize;
        // Counters accumulated since the last phase boundary; folded into
        // the next PhaseRecord.
        let mut pending_orphaned = 0usize;
        let mut pending_lost = 0usize;
        let mut pending_faults = 0usize;

        // The quantum floor guarantees progress: at least one full expansion
        // (workers + 1 vertex evaluations) fits in every phase, and time
        // advances by at least `min_step` per phase.
        let min_quantum = cfg.host.vertex_eval_cost * (cfg.workers as u64 + 1);
        let min_step = Duration::from_micros(1).max(cfg.host.vertex_eval_cost);

        // Arrivals are moved into the batch straight out of the sorted input.
        let mut arrivals = tasks.into_iter().peekable();
        // One batch for the whole run: each phase removes its scheduled and
        // expired tasks in place and arrivals are pushed onto the survivors.
        let mut batch = Batch::new(0);
        let mut now = Time::ZERO;
        let mut phases: Vec<PhaseRecord> = Vec::new();
        let mut dropped_total = 0usize;

        // One scratch for the whole run: after the first few phases every
        // buffer has reached its high-water capacity and scheduling phases
        // stop allocating entirely (see `PhaseScratch`).
        let mut scratch = PhaseScratch::new();
        // Profiling follows the tracer: without a sink there is nowhere to
        // put the record, and the search must stay clock-free.
        scratch
            .search
            .set_profiling(cfg.profile && tracer.enabled());
        let mut initial_finish: Vec<Time> = Vec::new();
        // Batch positions of each phase's delivered tasks, sorted.
        let mut delivered_at: Vec<usize> = Vec::new();
        // Marks for counting each phase's distinct processors.
        let mut processors_seen: Vec<bool> = Vec::new();

        loop {
            // Apply fault events that have come due. The host observes the
            // platform at phase boundaries, and `Machine::fail` partitions a
            // worker's history exactly even when the event instant lies
            // before `now` (the worker keeps every slot it ever admitted),
            // so applying events lazily here is equivalent to applying them
            // the instant they happened. Orphaned tasks re-enter the batch
            // and face the next phase's expiry filter like any other task.
            // Note that a retroactive failure retracts completion records
            // whose `TaskCompleted`/`TaskStarted` trace events were already
            // emitted at delivery time; the `TaskOrphaned`/`TaskLost` events
            // emitted here supersede them.
            while let Some(&ev) = plan.events.get(plan_cursor) {
                if ev.at > now {
                    break;
                }
                plan_cursor += 1;
                match ev.kind {
                    FaultKind::Down { fail_stop } => {
                        // A node crash and an independent per-processor
                        // failure can target the same (already down)
                        // processor; the second hit is a no-op and is not
                        // counted as a fault. Likewise a recovery for a
                        // processor a later stream already revived.
                        if machine.is_down(ev.processor) {
                            continue;
                        }
                        let failed = machine.fail(ev.processor, ev.at, keep_in_flight);
                        let lost = usize::from(failed.lost.is_some());
                        faults_seen += 1;
                        pending_faults += 1;
                        orphaned_total += failed.orphaned.len();
                        pending_orphaned += failed.orphaned.len();
                        lost_total += lost;
                        pending_lost += lost;
                        if tracer.enabled() {
                            tracer.emit(
                                ev.at,
                                TraceEvent::ProcessorFailed {
                                    processor: ev.processor.index(),
                                    fail_stop,
                                    orphaned: failed.orphaned.len(),
                                    lost,
                                },
                            );
                            for (task, _) in &failed.orphaned {
                                tracer.emit(
                                    ev.at,
                                    TraceEvent::TaskOrphaned {
                                        task: task.id().as_u64(),
                                        processor: ev.processor.index(),
                                    },
                                );
                            }
                            if let Some((task, _)) = &failed.lost {
                                tracer.emit(
                                    ev.at,
                                    TraceEvent::TaskLost {
                                        task: task.id().as_u64(),
                                        processor: ev.processor.index(),
                                    },
                                );
                            }
                        }
                        for (task, _) in failed.orphaned {
                            batch.push(task);
                        }
                    }
                    FaultKind::Up => {
                        if !machine.is_down(ev.processor) {
                            continue;
                        }
                        machine.recover(ev.processor, ev.at);
                        if tracer.enabled() {
                            tracer.emit(
                                ev.at,
                                TraceEvent::ProcessorRecovered {
                                    processor: ev.processor.index(),
                                },
                            );
                        }
                    }
                }
            }

            // Ingest everything that has arrived by `now`.
            while let Some(t) = arrivals.next_if(|t| t.arrival() <= now) {
                if tracer.enabled() {
                    // The first link of the task's decision chain: the
                    // parameters every later feasibility test uses.
                    tracer.emit(
                        now,
                        TraceEvent::TaskAdmitted {
                            task: t.id().as_u64(),
                            arrival_us: t.arrival().as_micros(),
                            deadline_us: t.deadline().as_micros(),
                            processing_us: t.processing_time().as_micros(),
                        },
                    );
                }
                batch.push(t);
            }
            if batch.is_empty() {
                // Idle until something changes the problem: the next arrival
                // or a pending fault event that can still touch queued or
                // running work (an event past every worker's busy horizon
                // can neither orphan nor lose anything, and with no arrivals
                // left a recovery is moot too).
                let next_arrival = arrivals.peek().map(Task::arrival);
                let busy_horizon = machine
                    .iter_workers()
                    .map(|w| w.busy_until())
                    .max()
                    .unwrap_or(Time::ZERO);
                let next_fault = plan
                    .events
                    .get(plan_cursor)
                    .map(|e| e.at)
                    .filter(|&f| f < busy_horizon);
                now = match (next_arrival, next_fault) {
                    (Some(a), Some(f)) => a.min(f),
                    (Some(a), None) => a,
                    (None, Some(f)) => f,
                    (None, None) => break,
                };
                continue;
            }

            // Phase j starts at t_s = now.
            let phase_no = batch.phase();
            let started = now;
            let traced = tracer.enabled();
            let dropped = batch.drop_expired(started, |t| {
                if traced {
                    tracer.emit(
                        started,
                        TraceEvent::TaskDropped {
                            task: t.id().as_u64(),
                        },
                    );
                }
            });
            dropped_total += dropped;
            if batch.is_empty() {
                // Everything expired; loop back (arrivals or exit).
                continue;
            }

            let quantum = cfg
                .quantum
                .allocate(&batch, started, &machine)
                .max(min_quantum);
            if tracer.enabled() {
                tracer.emit(
                    started,
                    TraceEvent::PhaseStarted {
                        phase: phase_no,
                        batch_len: batch.len(),
                        quantum,
                    },
                );
            }
            let mut meter = SchedulingMeter::new(cfg.host, quantum);
            let exec_bound = started + quantum;
            // Down workers report `UNAVAILABLE` here, so the feasibility
            // test screens them out of every placement.
            initial_finish.clear();
            initial_finish.extend(machine.iter_workers().map(|w| w.available_from(exec_bound)));

            let wall_start = (cfg.measure_overhead && tracer.enabled())
                .then(rt_telemetry::MonotonicInstant::now);
            let mut outcome = cfg.algorithm.schedule_phase(
                batch.tasks(),
                &cfg.comm,
                &initial_finish,
                started,
                cfg.vertex_cap,
                cfg.pruning,
                machine.resource_eats(),
                tracer.enabled(),
                &mut meter,
                &mut rng,
                &mut scratch,
            );
            let wall_ns = wall_start.map(|t0| t0.elapsed_ns());

            let consumed = meter.consumed().max(min_step);
            let ended = started + consumed;

            // Decision provenance, emitted while the batch indices in the
            // outcome still resolve against this phase's batch. The search
            // wrote its evidence as the trace's own probe records, so they
            // move into the events as they are.
            if tracer.enabled() {
                if let Some(prov) = outcome.provenance.take() {
                    for s in prov.screened {
                        let t = &batch.tasks()[s.task];
                        tracer.emit(
                            ended,
                            TraceEvent::TaskScreened {
                                task: t.id().as_u64(),
                                phase: phase_no,
                                deadline_us: t.deadline().as_micros(),
                                probes: s.probes,
                            },
                        );
                    }
                    for d in prov.decisions {
                        tracer.emit(
                            ended,
                            TraceEvent::PlacementDecided {
                                task: batch.tasks()[d.task].id().as_u64(),
                                phase: phase_no,
                                processor: d.chosen.processor,
                                completion_us: d.chosen.completion_us,
                                cost_us: d.chosen.cost_us,
                                // Only a topology of two or more nodes has
                                // shards to name (1 node is the flat machine).
                                shard: cfg
                                    .comm
                                    .topology()
                                    .filter(|t| t.nodes() >= 2)
                                    .map(|_| d.chosen.shard),
                                rejected: d.rejected,
                            },
                        );
                    }
                }
                if let Some(wall_ns) = wall_ns {
                    tracer.emit(
                        ended,
                        TraceEvent::SchedulerOverhead {
                            phase: phase_no,
                            allocated_us: quantum.as_micros(),
                            wall_ns,
                        },
                    );
                }
                if cfg.profile {
                    // Drained every phase so stage times never leak across
                    // phases; baselines (which never enter the search
                    // engine) leave an all-zero record that is not emitted.
                    let profile = scratch.search.take_profile();
                    if profile.total_ns() > 0 {
                        tracer.emit(
                            ended,
                            TraceEvent::PhaseProfiled {
                                phase: phase_no,
                                profile,
                            },
                        );
                    }
                }
            }

            let planned = outcome.assignments.len();
            let processors_used = outcome.processors_used(&mut processors_seen);

            // Communication spikes: while a window covers the delivery
            // instant, the schedule message pays `spike_delay` extra latency
            // and each dispatch is lost with probability `spike_loss`. A
            // lost dispatch never leaves the host — the task stays in the
            // batch and re-enters the next phase as an orphan.
            let in_spike = plan.in_spike(ended);
            let delivery_at = if in_spike {
                ended + plan.spike_delay
            } else {
                ended
            };
            outcome.assignments.retain(|a| {
                let lost = in_spike && plan.spike_loss > 0.0 && loss_rng.bernoulli(plan.spike_loss);
                if lost {
                    orphaned_total += 1;
                    pending_orphaned += 1;
                    if tracer.enabled() {
                        tracer.emit(
                            ended,
                            TraceEvent::TaskOrphaned {
                                task: batch.tasks()[a.task].id().as_u64(),
                                processor: a.processor.index(),
                            },
                        );
                    }
                }
                !lost
            });
            let scheduled = outcome.assignments.len();
            // Each delivered task is cloned once, into its worker's slot.
            let records = machine.deliver(
                outcome.assignments.iter().map(|a| Dispatch {
                    task: batch.tasks()[a.task].clone(),
                    processor: a.processor,
                }),
                delivery_at,
            );
            delivered_at.clear();
            delivered_at.extend(outcome.assignments.iter().map(|a| a.task));
            delivered_at.sort_unstable();
            // Tasks whose deadline lapsed *while* the phase was computing:
            // they stay in the batch (and are dropped — and counted — at the
            // next phase start), but the telemetry layer wants to see the
            // expiry at the instant it became unavoidable. The delivered
            // tasks leave the batch last: their dispatch events read it.
            let lapsed = |&(i, t): &(usize, &Task)| {
                t.is_expired(ended) && delivered_at.binary_search(&i).is_err()
            };
            let expired_mid_phase = batch.iter().enumerate().filter(lapsed).count();
            if tracer.enabled() {
                tracer.emit(
                    ended,
                    TraceEvent::PhaseEnded {
                        phase: phase_no,
                        scheduled,
                        consumed,
                        vertices: outcome.stats.vertices_generated,
                        backtracks: outcome.stats.backtracks,
                        undos: outcome.stats.undos,
                        replay_avoided: outcome.stats.replay_avoided,
                    },
                );
                for (_, t) in batch.iter().enumerate().filter(lapsed) {
                    tracer.emit(
                        ended,
                        TraceEvent::TaskExpiredMidPhase {
                            task: t.id().as_u64(),
                            phase: phase_no,
                        },
                    );
                }
                for (r, a) in records.iter().zip(&outcome.assignments) {
                    let slack_us = r.deadline.as_micros() as i64 - r.start.as_micros() as i64;
                    tracer.emit(
                        ended,
                        TraceEvent::TaskDispatched {
                            task: r.task.as_u64(),
                            processor: r.processor.index(),
                            slack_us,
                        },
                    );
                    let comm_delay = r
                        .service
                        .saturating_sub(batch.tasks()[a.task].processing_time());
                    if !comm_delay.is_zero() {
                        tracer.emit(
                            r.start,
                            TraceEvent::CommDelay {
                                task: r.task.as_u64(),
                                processor: r.processor.index(),
                                delay_us: comm_delay.as_micros(),
                            },
                        );
                    }
                    tracer.emit(
                        r.start,
                        TraceEvent::TaskStarted {
                            task: r.task.as_u64(),
                            processor: r.processor.index(),
                        },
                    );
                    let lateness_us =
                        r.completion.as_micros() as i64 - r.deadline.as_micros() as i64;
                    tracer.emit(
                        r.completion,
                        TraceEvent::TaskCompleted {
                            task: r.task.as_u64(),
                            processor: r.processor.index(),
                            met_deadline: r.met_deadline,
                            lateness_us,
                        },
                    );
                }
            }
            batch.remove_sorted(&delivered_at);

            phases.push(PhaseRecord {
                phase: phase_no,
                started,
                batch_len: batch.len() + scheduled,
                dropped,
                expired_mid_phase,
                quantum,
                consumed,
                vertices: outcome.stats.vertices_generated,
                backtracks: outcome.stats.backtracks,
                undos: outcome.stats.undos,
                replay_avoided: outcome.stats.replay_avoided,
                deepest: outcome.stats.deepest,
                scheduled,
                processors_used,
                termination: outcome.termination,
                orphaned: pending_orphaned,
                lost_in_flight: pending_lost,
                faults: pending_faults,
            });
            // Return the assignment buffer to the pool so the next phase can
            // reuse its capacity instead of allocating a fresh one.
            scratch.recycle(std::mem::take(&mut outcome.assignments));
            pending_orphaned = 0;
            pending_lost = 0;
            pending_faults = 0;

            batch.advance_phase();
            now = ended;

            // Fast-forward through provably idle stretches. If the phase
            // scheduled nothing, the next phase faces an identical problem:
            // between arrivals and batch expiries, the planned execution
            // start `t_s + Q_s(j)` is constant (`Q_s` terms are
            // `min(d_l − t − p_l)` and `min(busy_k − t)`, so `t + Q_s` is
            // `max(min(d_l − p_l), min busy_k)`), hence the deterministic
            // search repeats its outcome exactly. Jump to the next event
            // that changes the problem: an arrival or a *future* task
            // expiry. Tasks already expired at `now` (they lapsed mid-phase
            // and will be dropped at the next phase start) must not anchor
            // the jump, or the target lands at or before `now` and the
            // driver grinds through a no-op phase instead of skipping ahead.
            //
            // Under fault injection the gate is `planned == 0`, not
            // `scheduled == 0`: a phase whose dispatches were all lost to a
            // spike consumed loss draws, so the repeated problem is not
            // identical. And a jump must never cross a pending fault event —
            // a failure or recovery changes the processor set, which changes
            // the search's outcome.
            if planned == 0 {
                let next_arrival = arrivals.peek().map(Task::arrival);
                let next_expiry = batch
                    .iter()
                    .map(|t| (t.deadline() - t.processing_time()) + Duration::from_micros(1))
                    .filter(|&e| e > now)
                    .min();
                let jump = match (next_arrival, next_expiry) {
                    (Some(a), Some(e)) => Some(a.min(e)),
                    (Some(a), None) => Some(a),
                    (None, Some(e)) => Some(e),
                    (None, None) => None,
                };
                if let Some(target) = jump {
                    let target = plan
                        .events
                        .get(plan_cursor)
                        .map_or(target, |e| target.min(e.at));
                    now = now.max(target);
                }
            }
        }

        // Fault fallout observed after the last phase boundary (e.g. an
        // in-flight loss on an otherwise-empty machine) has no next phase to
        // report it; fold it into the final record so per-phase tallies sum
        // to the run totals.
        if pending_orphaned + pending_lost + pending_faults > 0 {
            if let Some(last) = phases.last_mut() {
                last.orphaned += pending_orphaned;
                last.lost_in_flight += pending_lost;
                last.faults += pending_faults;
            }
        }

        let hits = machine.deadline_hits();
        let executed_misses = machine.completions().len() - hits;
        let finished_at = machine
            .completions()
            .iter()
            .map(|c| c.completion)
            .max()
            .unwrap_or(now);
        RunReport {
            algorithm: cfg.algorithm.name().to_string(),
            total_tasks,
            hits,
            dropped: dropped_total,
            executed_misses,
            phases,
            workers_used: machine.workers_used(),
            worker_busy: machine.iter_workers().map(|w| w.busy_time()).collect(),
            worker_idle: machine
                .iter_workers()
                .map(|w| w.idle_time(finished_at))
                .collect(),
            // Per-shard totals only exist on genuinely sharded platforms;
            // flat runs (including 1-node topologies) keep the field empty
            // so their reports stay bit-identical to pre-topology ones.
            shard_busy: cfg
                .comm
                .topology()
                .filter(|t| t.nodes() >= 2)
                .map_or_else(Vec::new, |t| {
                    (0..t.nodes())
                        .map(|n| {
                            let (lo, hi) = t.node_range(n);
                            (lo..hi)
                                .map(|p| machine.worker(rt_task::ProcessorId::new(p)).busy_time())
                                .sum()
                        })
                        .collect()
                }),
            // Moves the records out of the machine, after the per-worker
            // totals above have read it.
            completions: machine.into_completions(),
            finished_at,
            orphaned: orphaned_total,
            lost_in_flight: lost_total,
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
