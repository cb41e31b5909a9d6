//! Deterministic, seeded fault injection.
//!
//! Real Paragon-class machines lose nodes and delay or drop messages; the
//! paper's feasibility test `t_c + RQ_s(j) + se_lk ≤ d_l` only earns its
//! keep if the schedule degrades gracefully when the platform misbehaves.
//! This module describes *what goes wrong and when*:
//!
//! * [`FaultConfig`] — a generative description (per-processor failure
//!   rate, mean time to repair, communication-spike parameters) carried by
//!   the driver configuration and serializable alongside it.
//! * [`FaultPlan`] — the concrete, sorted event list one run executes,
//!   sampled reproducibly from `(config, workers, seed)`. The same seed
//!   always yields the same plan; a disabled config yields an empty plan
//!   and the run is bit-identical to a fault-free one.
//!
//! The fault streams are derived from the run seed through dedicated
//! [`SimRng::child`] indices, so sampling a plan never perturbs the
//! scheduling algorithm's own random stream — that is what makes the
//! zero-event differential test exact rather than merely statistical.

use paragon_des::{Duration, SimRng, Time};
use rt_task::ProcessorId;
use serde::{Deserialize, Serialize};

/// Child index (off the run seed) reserved for fault sampling. Scenario
/// generation uses children `0..4` of the *scenario* seed and the driver
/// seeds the algorithm RNG directly, so any constant works; this one is
/// merely recognizable.
const FAULT_STREAM: u64 = 0xFA17;

/// What happens to the task executing on a processor at the instant it
/// fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum InFlightPolicy {
    /// The task is killed mid-execution and cannot be recovered: its
    /// completion record is retracted and it counts as `lost_in_flight`.
    #[default]
    Lost,
    /// The task's execution survives the failure (e.g. the result had
    /// already been shipped); only queued work is orphaned.
    Completes,
}

/// Generative description of platform misbehavior for one run.
///
/// All rates are *per second of virtual time*. The default is fully
/// disabled; [`FaultConfig::is_disabled`] runs sample an empty
/// [`FaultPlan`] and behave bit-identically to fault-free runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Expected failures per processor per second of virtual time
    /// (exponential inter-failure gaps). Zero disables processor faults.
    pub failure_rate: f64,
    /// Mean time to repair: failed processors come back after an
    /// exponentially distributed repair time with this mean. `None` makes
    /// every failure fail-stop (the processor never returns).
    pub mttr: Option<Duration>,
    /// What happens to the task executing at the failure instant.
    pub in_flight: InFlightPolicy,
    /// Expected communication-delay spike windows per second of virtual
    /// time. Zero disables spikes.
    pub spike_rate: f64,
    /// Mean length of one spike window (exponentially distributed).
    pub spike_mean_len: Duration,
    /// Extra delivery delay every schedule message pays while a spike
    /// window is open.
    pub spike_delay: Duration,
    /// Probability that an individual dispatch message is lost while a
    /// spike window is open; lost dispatches are orphaned back to the host
    /// and re-batched.
    pub spike_loss: f64,
    /// Sampling horizon: no fault event is generated at or beyond this
    /// instant of virtual time.
    pub horizon: Duration,
    /// Expected failures per *node* per second of virtual time under a
    /// hierarchical topology: a node failure downs every processor of the
    /// node at the same instant (the shard fault domain). Zero disables
    /// node faults; without a topology the stream samples nothing. Absent
    /// in pre-topology configs, so it deserializes to the disabled default.
    #[serde(default)]
    pub node_failure_rate: f64,
    /// Mean time to repair a failed node (exponentially distributed).
    /// `None` makes node failures fail-stop.
    #[serde(default)]
    pub node_mttr: Option<Duration>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            failure_rate: 0.0,
            mttr: None,
            in_flight: InFlightPolicy::Lost,
            spike_rate: 0.0,
            spike_mean_len: Duration::ZERO,
            spike_delay: Duration::ZERO,
            spike_loss: 0.0,
            horizon: Duration::from_secs(60),
            node_failure_rate: 0.0,
            node_mttr: None,
        }
    }
}

impl FaultConfig {
    /// The disabled configuration: no events are ever sampled.
    #[must_use]
    pub fn disabled() -> Self {
        FaultConfig::default()
    }

    /// Fail-stop processor failures at `rate` failures/processor/second.
    #[must_use]
    pub fn fail_stop(rate: f64) -> Self {
        FaultConfig {
            failure_rate: rate,
            ..FaultConfig::default()
        }
    }

    /// Fail-recover processor failures: `rate` failures/processor/second,
    /// exponentially distributed repairs with mean `mttr`.
    #[must_use]
    pub fn fail_recover(rate: f64, mttr: Duration) -> Self {
        FaultConfig {
            failure_rate: rate,
            mttr: Some(mttr),
            ..FaultConfig::default()
        }
    }

    /// Sets the in-flight policy.
    #[must_use]
    pub fn in_flight(mut self, policy: InFlightPolicy) -> Self {
        self.in_flight = policy;
        self
    }

    /// Adds communication spikes: `rate` windows/second of mean length
    /// `mean_len`, each delaying deliveries by `delay` and losing
    /// individual dispatch messages with probability `loss`.
    #[must_use]
    pub fn spikes(mut self, rate: f64, mean_len: Duration, delay: Duration, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss probability {loss}");
        self.spike_rate = rate;
        self.spike_mean_len = mean_len;
        self.spike_delay = delay;
        self.spike_loss = loss;
        self
    }

    /// Sets the sampling horizon.
    #[must_use]
    pub fn horizon(mut self, horizon: Duration) -> Self {
        self.horizon = horizon;
        self
    }

    /// Adds node-level failures (shard fault domains): `rate` failures per
    /// node per second, repaired after an exponential time with mean `mttr`
    /// (`None` = fail-stop). Takes effect only on runs with a hierarchical
    /// topology ([`FaultConfig::sample_plan_topo`]).
    #[must_use]
    pub fn node_faults(mut self, rate: f64, mttr: Option<Duration>) -> Self {
        self.node_failure_rate = rate;
        self.node_mttr = mttr;
        self
    }

    /// Whether this configuration can never produce an event.
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.failure_rate <= 0.0 && self.spike_rate <= 0.0 && self.node_failure_rate <= 0.0
    }

    /// Samples the concrete plan for a run on a (possibly hierarchical)
    /// platform. Per-processor failures sample exactly as on the flat
    /// machine; with a topology and `node_failure_rate > 0`, each node also
    /// gets an independent failure stream whose Down/Up events expand to one
    /// event per member processor at the same instant — a node crash is the
    /// shard fault domain. Deterministic in `(self, workers, topo, seed)`,
    /// and the per-processor streams are unchanged by adding a topology.
    ///
    /// # Panics
    ///
    /// Panics if a rate is negative or not finite, or if the topology's
    /// worker count disagrees with `workers`.
    #[must_use]
    pub fn sample_plan_topo(
        &self,
        workers: usize,
        topo: Option<&rt_task::TopologySpec>,
        seed: u64,
    ) -> FaultPlan {
        assert!(
            self.failure_rate.is_finite() && self.failure_rate >= 0.0,
            "failure rate {}",
            self.failure_rate
        );
        assert!(
            self.spike_rate.is_finite() && self.spike_rate >= 0.0,
            "spike rate {}",
            self.spike_rate
        );
        assert!(
            self.node_failure_rate.is_finite() && self.node_failure_rate >= 0.0,
            "node failure rate {}",
            self.node_failure_rate
        );
        if let Some(topo) = topo {
            assert_eq!(
                topo.workers(),
                workers,
                "topology worker count must match the machine"
            );
        }
        let mut plan = FaultPlan {
            events: Vec::new(),
            spikes: Vec::new(),
            in_flight: self.in_flight,
            spike_delay: self.spike_delay,
            spike_loss: self.spike_loss,
        };
        if self.is_disabled() {
            return plan;
        }
        let root = SimRng::seed_from(seed).child(FAULT_STREAM);
        let horizon = Time::ZERO + self.horizon;
        if self.failure_rate > 0.0 {
            let mean_up_us = 1e6 / self.failure_rate;
            for k in 0..workers {
                let processor = ProcessorId::new(k);
                let mut rng = root.child(1 + k as u64);
                let mut t = Time::ZERO;
                loop {
                    let gap = rng.exponential(mean_up_us).max(1.0);
                    t += Duration::from_micros(gap as u64);
                    if t >= horizon {
                        break;
                    }
                    match self.mttr {
                        None => {
                            plan.events.push(FaultEvent {
                                at: t,
                                processor,
                                kind: FaultKind::Down { fail_stop: true },
                            });
                            break;
                        }
                        Some(mttr) => {
                            let repair = rng.exponential(mttr.as_micros() as f64).max(1.0);
                            let up = t + Duration::from_micros(repair as u64);
                            plan.events.push(FaultEvent {
                                at: t,
                                processor,
                                kind: FaultKind::Down { fail_stop: false },
                            });
                            plan.events.push(FaultEvent {
                                at: up,
                                processor,
                                kind: FaultKind::Up,
                            });
                            t = up;
                        }
                    }
                }
            }
        }
        if self.node_failure_rate > 0.0 {
            if let Some(topo) = topo {
                let mean_up_us = 1e6 / self.node_failure_rate;
                for node in 0..topo.nodes() {
                    // Streams `0..=workers + 1` off the fault stream are taken
                    // (spikes, per-processor, loss); node streams start after.
                    let mut rng = root.child(workers as u64 + 2 + node as u64);
                    let (lo, hi) = topo.node_range(node);
                    let mut t = Time::ZERO;
                    loop {
                        let gap = rng.exponential(mean_up_us).max(1.0);
                        t += Duration::from_micros(gap as u64);
                        if t >= horizon {
                            break;
                        }
                        match self.node_mttr {
                            None => {
                                for k in lo..hi {
                                    plan.events.push(FaultEvent {
                                        at: t,
                                        processor: ProcessorId::new(k),
                                        kind: FaultKind::Down { fail_stop: true },
                                    });
                                }
                                break;
                            }
                            Some(mttr) => {
                                let repair = rng.exponential(mttr.as_micros() as f64).max(1.0);
                                let up = t + Duration::from_micros(repair as u64);
                                for k in lo..hi {
                                    plan.events.push(FaultEvent {
                                        at: t,
                                        processor: ProcessorId::new(k),
                                        kind: FaultKind::Down { fail_stop: false },
                                    });
                                    plan.events.push(FaultEvent {
                                        at: up,
                                        processor: ProcessorId::new(k),
                                        kind: FaultKind::Up,
                                    });
                                }
                                t = up;
                            }
                        }
                    }
                }
            }
        }
        if self.spike_rate > 0.0 {
            assert!(
                !self.spike_mean_len.is_zero(),
                "spikes need a non-zero mean length"
            );
            let mean_gap_us = 1e6 / self.spike_rate;
            let mut rng = root.child(0);
            let mut t = Time::ZERO;
            loop {
                let gap = rng.exponential(mean_gap_us).max(1.0);
                let from = t + Duration::from_micros(gap as u64);
                if from >= horizon {
                    break;
                }
                let len = rng
                    .exponential(self.spike_mean_len.as_micros() as f64)
                    .max(1.0);
                let until = from + Duration::from_micros(len as u64);
                plan.spikes.push(SpikeWindow { from, until });
                t = until;
            }
        }
        plan.events
            .sort_by_key(|e| (e.at, e.processor.index(), matches!(e.kind, FaultKind::Up)));
        plan
    }
}

/// The RNG stream used for per-dispatch loss draws during a run. Kept
/// separate from both the algorithm RNG and the plan-sampling children
/// (indices `0..=workers` for spikes and per-processor streams, and
/// `workers + 2 + node` for per-node streams, off the fault stream).
#[must_use]
pub fn loss_stream(workers: usize, seed: u64) -> SimRng {
    SimRng::seed_from(seed)
        .child(FAULT_STREAM)
        .child(workers as u64 + 1)
}

/// What kind of processor event occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The processor fails at the event instant.
    Down {
        /// `true` if no matching [`FaultKind::Up`] will follow.
        fail_stop: bool,
    },
    /// The processor comes back up at the event instant.
    Up,
}

/// One processor fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the event takes effect.
    pub at: Time,
    /// The affected processor.
    pub processor: ProcessorId,
    /// Failure or recovery.
    pub kind: FaultKind,
}

/// A half-open window `[from, until)` of degraded communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpikeWindow {
    /// First degraded instant.
    pub from: Time,
    /// First instant past the window.
    pub until: Time,
}

impl SpikeWindow {
    /// Whether `t` falls inside the window.
    #[must_use]
    pub fn contains(&self, t: Time) -> bool {
        self.from <= t && t < self.until
    }
}

/// The concrete fault schedule one run executes: processor events sorted by
/// `(instant, processor, up-after-down)` plus non-overlapping communication
/// spike windows sorted by start.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Processor failures and recoveries, sorted.
    pub events: Vec<FaultEvent>,
    /// Communication spike windows, sorted and disjoint.
    pub spikes: Vec<SpikeWindow>,
    /// What happens to in-flight tasks at a failure.
    pub in_flight: InFlightPolicy,
    /// Extra delivery delay inside a spike window.
    pub spike_delay: Duration,
    /// Per-dispatch message-loss probability inside a spike window.
    pub spike_loss: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::empty()
    }
}

impl FaultPlan {
    /// A plan with no events and no spikes: runs under it are bit-identical
    /// to fault-free runs.
    #[must_use]
    pub fn empty() -> Self {
        FaultPlan {
            events: Vec::new(),
            spikes: Vec::new(),
            in_flight: InFlightPolicy::Lost,
            spike_delay: Duration::ZERO,
            spike_loss: 0.0,
        }
    }

    /// Whether the plan contains neither events nor spikes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.spikes.is_empty()
    }

    /// Whether `t` lies inside a communication spike window.
    #[must_use]
    pub fn in_spike(&self, t: Time) -> bool {
        // Plans hold few windows; a linear scan beats bookkeeping.
        self.spikes.iter().any(|w| w.contains(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_samples_an_empty_plan() {
        let plan = FaultConfig::disabled().sample_plan_topo(8, None, 1234);
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::empty());
    }

    #[test]
    fn sampling_is_deterministic_in_the_seed() {
        let cfg = FaultConfig::fail_recover(5.0, Duration::from_millis(200)).spikes(
            2.0,
            Duration::from_millis(50),
            Duration::from_millis(3),
            0.1,
        );
        let a = cfg.sample_plan_topo(10, None, 77);
        let b = cfg.sample_plan_topo(10, None, 77);
        assert_eq!(a, b);
        let c = cfg.sample_plan_topo(10, None, 78);
        assert_ne!(a, c, "different seeds give different plans");
        assert!(!a.is_empty());
    }

    #[test]
    fn events_are_sorted_and_alternate_per_processor() {
        let cfg = FaultConfig::fail_recover(20.0, Duration::from_millis(100));
        let plan = cfg.sample_plan_topo(4, None, 9);
        assert!(plan.events.windows(2).all(|w| w[0].at <= w[1].at));
        for k in 0..4 {
            let seq: Vec<&FaultEvent> = plan
                .events
                .iter()
                .filter(|e| e.processor == ProcessorId::new(k))
                .collect();
            // strictly alternating Down/Up starting with Down
            for (i, e) in seq.iter().enumerate() {
                let expect_down = i % 2 == 0;
                assert_eq!(
                    matches!(e.kind, FaultKind::Down { .. }),
                    expect_down,
                    "P{k} event {i} out of order"
                );
            }
        }
    }

    #[test]
    fn fail_stop_yields_at_most_one_failure_per_processor() {
        let plan = FaultConfig::fail_stop(50.0).sample_plan_topo(6, None, 3);
        for k in 0..6 {
            let downs = plan
                .events
                .iter()
                .filter(|e| e.processor == ProcessorId::new(k))
                .count();
            assert!(downs <= 1, "P{k} has {downs} events");
        }
        assert!(plan
            .events
            .iter()
            .all(|e| matches!(e.kind, FaultKind::Down { fail_stop: true })));
    }

    #[test]
    fn horizon_bounds_every_event_and_spike() {
        let cfg = FaultConfig::fail_recover(100.0, Duration::from_millis(10))
            .spikes(
                50.0,
                Duration::from_millis(20),
                Duration::from_millis(1),
                0.5,
            )
            .horizon(Duration::from_secs(1));
        let plan = cfg.sample_plan_topo(3, None, 5);
        let horizon = Time::ZERO + Duration::from_secs(1);
        // Down events respect the horizon; a matching Up may land past it
        // (repairs are not censored), and spikes *start* inside it.
        for e in &plan.events {
            if matches!(e.kind, FaultKind::Down { .. }) {
                assert!(e.at < horizon);
            }
        }
        assert!(plan.spikes.iter().all(|w| w.from < horizon));
        assert!(plan.spikes.windows(2).all(|w| w[0].until <= w[1].from));
    }

    #[test]
    fn spike_windows_answer_membership() {
        let w = SpikeWindow {
            from: Time::from_millis(10),
            until: Time::from_millis(20),
        };
        assert!(!w.contains(Time::from_millis(9)));
        assert!(w.contains(Time::from_millis(10)));
        assert!(w.contains(Time::from_millis(19)));
        assert!(!w.contains(Time::from_millis(20)));
        let plan = FaultPlan {
            spikes: vec![w],
            ..FaultPlan::empty()
        };
        assert!(plan.in_spike(Time::from_millis(15)));
        assert!(!plan.in_spike(Time::from_millis(25)));
    }

    #[test]
    fn loss_stream_is_decorrelated_from_plan_sampling() {
        let mut a = loss_stream(10, 42);
        let mut b = loss_stream(10, 42);
        assert_eq!(a.uniform_u64(0..u64::MAX), b.uniform_u64(0..u64::MAX));
        let mut c = loss_stream(10, 43);
        let mut a2 = loss_stream(10, 42);
        assert_ne!(a2.uniform_u64(0..u64::MAX), c.uniform_u64(0..u64::MAX));
    }

    #[test]
    fn config_serde_round_trips() {
        let cfg = FaultConfig::fail_recover(1.5, Duration::from_millis(250))
            .in_flight(InFlightPolicy::Completes)
            .spikes(
                0.5,
                Duration::from_millis(30),
                Duration::from_millis(2),
                0.05,
            )
            .node_faults(0.2, Some(Duration::from_millis(500)));
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FaultConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn pre_topology_configs_deserialize_with_node_faults_disabled() {
        // A config serialized before the node-fault fields existed must
        // still load, with node faults defaulting to off. The node fields
        // are declared last, so stripping them from the tail of the JSON
        // reconstructs the legacy wire format exactly.
        let json = serde_json::to_string(&FaultConfig::fail_stop(1.0)).unwrap();
        let cut = json.find(",\"node_failure_rate\"").unwrap();
        let legacy = format!("{}}}", &json[..cut]);
        let back: FaultConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.node_failure_rate, 0.0);
        assert_eq!(back.node_mttr, None);
        assert_eq!(back, FaultConfig::fail_stop(1.0));
    }

    #[test]
    fn node_failures_expand_to_every_member_processor() {
        let topo = rt_task::TopologySpec::new(8, 4, 2, 0, 100, 200);
        let cfg = FaultConfig {
            node_failure_rate: 5.0,
            node_mttr: Some(Duration::from_millis(100)),
            horizon: Duration::from_secs(10),
            ..FaultConfig::default()
        };
        let plan = cfg.sample_plan_topo(8, Some(&topo), 11);
        assert!(!plan.events.is_empty());
        // Every event instant must cover an entire node: group by (at, kind)
        // and check each group is exactly one node's processor range.
        let mut groups: std::collections::BTreeMap<(Time, bool), Vec<usize>> =
            std::collections::BTreeMap::new();
        for e in &plan.events {
            groups
                .entry((e.at, matches!(e.kind, FaultKind::Up)))
                .or_default()
                .push(e.processor.index());
        }
        for ((_, _), mut procs) in groups {
            procs.sort_unstable();
            let node = topo.node_of(rt_task::ProcessorId::new(procs[0]));
            let (lo, hi) = topo.node_range(node);
            assert_eq!(procs, (lo..hi).collect::<Vec<_>>());
        }
    }

    #[test]
    fn node_fail_stop_downs_each_node_at_most_once() {
        let topo = rt_task::TopologySpec::new(6, 3, 1, 0, 100, 100);
        let cfg = FaultConfig {
            node_failure_rate: 50.0,
            horizon: Duration::from_secs(30),
            ..FaultConfig::default()
        };
        let plan = cfg.sample_plan_topo(6, Some(&topo), 3);
        let mut downs_per_proc = [0usize; 6];
        for e in &plan.events {
            assert_eq!(e.kind, FaultKind::Down { fail_stop: true });
            downs_per_proc[e.processor.index()] += 1;
        }
        assert!(downs_per_proc.iter().all(|&d| d <= 1));
        assert!(downs_per_proc.contains(&1));
    }

    #[test]
    fn adding_node_faults_leaves_processor_streams_unchanged() {
        let topo = rt_task::TopologySpec::new(8, 4, 2, 0, 100, 200);
        let base = FaultConfig::fail_recover(2.0, Duration::from_millis(50));
        let flat = base.sample_plan_topo(8, None, 77);
        let with_nodes = base
            .node_faults(1.0, None)
            .sample_plan_topo(8, Some(&topo), 77);
        // Every flat per-processor event reappears verbatim in the sharded
        // plan (node events are interleaved but drawn from disjoint streams).
        for e in &flat.events {
            assert!(with_nodes.events.contains(e));
        }
        assert!(with_nodes.events.len() > flat.events.len());
    }
}
