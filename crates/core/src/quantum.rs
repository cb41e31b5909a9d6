//! Allocation of scheduling time — the paper's Figure 3 criterion.

use paragon_des::{Duration, Time};
use paragon_platform::Machine;
use rt_task::Batch;

/// How much scheduling time a phase is allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantumPolicy {
    /// The paper's self-adjusting criterion:
    /// `Q_s(j) = max(Min_Slack, Min_Load)` where `Min_Slack` is the minimum
    /// slack over the batch and `Min_Load` the minimum backlog over the
    /// working processors. Optionally clamped from above (the paper leaves
    /// the quantum unclamped; a clamp is useful in sensitivity studies).
    SelfAdjusting {
        /// Optional upper clamp on the quantum.
        max: Option<Duration>,
    },
    /// A fixed quantum per phase — the ablation baseline showing why
    /// self-adjustment matters.
    Fixed(Duration),
}

impl QuantumPolicy {
    /// The paper's policy, unclamped.
    #[must_use]
    pub const fn self_adjusting() -> Self {
        QuantumPolicy::SelfAdjusting { max: None }
    }

    /// Computes `Q_s(j)` for the given batch and machine state at phase
    /// start `now`.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty — the driver never opens a phase on an
    /// empty batch.
    #[must_use]
    pub fn allocate(&self, batch: &Batch, now: Time, machine: &Machine) -> Duration {
        match self {
            QuantumPolicy::SelfAdjusting { max } => {
                let min_slack = batch
                    .min_slack(now)
                    .expect("quantum allocation on an empty batch");
                let min_load = machine.min_load(now);
                let q = min_slack.max(min_load);
                match max {
                    Some(cap) => q.min(*cap),
                    None => q,
                }
            }
            QuantumPolicy::Fixed(q) => *q,
        }
    }
}

impl Default for QuantumPolicy {
    fn default() -> Self {
        QuantumPolicy::self_adjusting()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_platform::{Dispatch, MachineConfig};
    use rt_task::{CommModel, ProcessorId, Task, TaskId};

    fn machine(workers: usize) -> Machine {
        Machine::new(MachineConfig {
            workers,
            comm: CommModel::free(),
        })
    }

    fn batch_with(slacks_ms: &[u64], now: Time) -> Batch {
        let mut b = Batch::new(0);
        for (i, &s) in slacks_ms.iter().enumerate() {
            // slack = d - now - p; fix p = 1ms, d = now + p + slack
            b.push(
                Task::builder(TaskId::new(i as u64))
                    .processing_time(Duration::from_millis(1))
                    .arrival(now)
                    .deadline(now + Duration::from_millis(1) + Duration::from_millis(s))
                    .build(),
            );
        }
        b
    }

    #[test]
    fn idle_machine_uses_min_slack() {
        let m = machine(3);
        let now = Time::from_millis(5);
        let b = batch_with(&[10, 4, 30], now);
        let q = QuantumPolicy::self_adjusting().allocate(&b, now, &m);
        assert_eq!(q, Duration::from_millis(4));
    }

    #[test]
    fn loaded_machine_extends_quantum_to_min_load() {
        let mut m = machine(2);
        // both workers busy for 50ms
        for p in 0..2 {
            m.deliver(
                vec![Dispatch {
                    task: Task::builder(TaskId::new(90 + p as u64))
                        .processing_time(Duration::from_millis(50))
                        .deadline(Time::from_millis(1_000))
                        .build(),
                    processor: ProcessorId::new(p),
                }],
                Time::ZERO,
            );
        }
        let now = Time::ZERO;
        let b = batch_with(&[4], now);
        // Min_Slack = 4ms but Min_Load = 50ms: scheduling can afford 50ms
        let q = QuantumPolicy::self_adjusting().allocate(&b, now, &m);
        assert_eq!(q, Duration::from_millis(50));
    }

    #[test]
    fn one_idle_worker_caps_min_load() {
        let mut m = machine(2);
        m.deliver(
            vec![Dispatch {
                task: Task::builder(TaskId::new(99))
                    .processing_time(Duration::from_millis(50))
                    .deadline(Time::from_millis(1_000))
                    .build(),
                processor: ProcessorId::new(0),
            }],
            Time::ZERO,
        );
        let b = batch_with(&[4], Time::ZERO);
        // P1 idle -> Min_Load = 0 -> quantum falls back to Min_Slack
        let q = QuantumPolicy::self_adjusting().allocate(&b, Time::ZERO, &m);
        assert_eq!(q, Duration::from_millis(4));
    }

    #[test]
    fn clamp_applies() {
        let m = machine(1);
        let b = batch_with(&[1_000], Time::ZERO);
        let q = QuantumPolicy::SelfAdjusting {
            max: Some(Duration::from_millis(20)),
        }
        .allocate(&b, Time::ZERO, &m);
        assert_eq!(q, Duration::from_millis(20));
    }

    #[test]
    fn fixed_policy_ignores_state() {
        let m = machine(1);
        let b = batch_with(&[1], Time::ZERO);
        let q = QuantumPolicy::Fixed(Duration::from_millis(7)).allocate(&b, Time::ZERO, &m);
        assert_eq!(q, Duration::from_millis(7));
    }

    #[test]
    fn zero_slack_idle_machine_gives_zero_quantum() {
        let m = machine(1);
        let b = batch_with(&[0], Time::ZERO);
        let q = QuantumPolicy::self_adjusting().allocate(&b, Time::ZERO, &m);
        assert_eq!(q, Duration::ZERO, "the driver's floor handles this case");
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let m = machine(1);
        let b = Batch::new(0);
        let _ = QuantumPolicy::self_adjusting().allocate(&b, Time::ZERO, &m);
    }
}
