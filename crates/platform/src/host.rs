//! The dedicated scheduling (host) processor's cost model.
//!
//! On the paper's Paragon, the host node runs the scheduler and its cost is
//! physical time. Here, scheduling cost is *virtual*: every search vertex the
//! scheduler generates and evaluates charges [`HostParams::vertex_eval_cost`]
//! against the phase's quantum. The [`SchedulingMeter`] does the bookkeeping
//! for one phase and answers "how much of `Q_s` is left" (`RQ_s`).

use paragon_des::Duration;
use serde::{Deserialize, Serialize};

/// Host-processor cost parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostParams {
    /// Virtual time charged per generated search vertex (allocation +
    /// evaluation + feasibility test, per Section 4.1 of the paper).
    pub vertex_eval_cost: Duration,
}

impl HostParams {
    /// A host with the given per-vertex cost.
    #[must_use]
    pub const fn new(vertex_eval_cost: Duration) -> Self {
        HostParams { vertex_eval_cost }
    }

    /// A host whose scheduling work is free — useful for isolating
    /// representation quality from overhead in ablation experiments.
    #[must_use]
    pub const fn free() -> Self {
        HostParams {
            vertex_eval_cost: Duration::ZERO,
        }
    }
}

impl Default for HostParams {
    /// Default calibrated per-vertex cost (5 µs), roughly a few thousand
    /// instructions on mid-90s hardware.
    fn default() -> Self {
        HostParams::new(Duration::from_micros(5))
    }
}

/// Scheduling-time accounting for one phase.
///
/// # Example
///
/// ```
/// use paragon_des::Duration;
/// use paragon_platform::{HostParams, SchedulingMeter};
///
/// let mut meter = SchedulingMeter::new(HostParams::new(Duration::from_micros(5)),
///                                      Duration::from_micros(12));
/// assert!(meter.charge_vertex()); // 5us consumed, 7 left
/// assert!(meter.charge_vertex()); // 10us consumed, 2 left
/// assert!(!meter.charge_vertex()); // would exceed the quantum
/// assert_eq!(meter.vertices(), 3);
/// assert!(meter.exhausted());
/// ```
#[derive(Debug, Clone)]
pub struct SchedulingMeter {
    params: HostParams,
    quantum: Duration,
    consumed: Duration,
    vertices: u64,
    exhausted: bool,
}

impl SchedulingMeter {
    /// Starts metering a phase with allocated quantum `quantum`.
    #[must_use]
    pub fn new(params: HostParams, quantum: Duration) -> Self {
        SchedulingMeter {
            params,
            quantum,
            consumed: Duration::ZERO,
            vertices: 0,
            exhausted: false,
        }
    }

    /// Charges one vertex generation. Returns `false` — and marks the meter
    /// exhausted — if the charge does not fit in the remaining quantum; the
    /// vertex is still counted (the work of discovering the budget is over
    /// was done), but `consumed` never exceeds the quantum.
    #[inline]
    pub fn charge_vertex(&mut self) -> bool {
        self.vertices += 1;
        if self.exhausted {
            return false;
        }
        let after = self.consumed + self.params.vertex_eval_cost;
        if after > self.quantum {
            self.exhausted = true;
            self.consumed = self.quantum;
            false
        } else {
            self.consumed = after;
            // A zero-cost host never exhausts; otherwise exactly filling the
            // quantum leaves no room for further vertices.
            if after == self.quantum && !self.params.vertex_eval_cost.is_zero() {
                self.exhausted = true;
            }
            true
        }
    }

    /// Charges up to `n` vertex generations in O(1): the same `consumed`,
    /// `vertices` and `exhausted` as calling
    /// [`SchedulingMeter::charge_vertex`] `n` times and stopping at the
    /// first `false`. Returns how many charges fit; when that is fewer than
    /// `n`, the one that did not fit is counted as well.
    pub fn charge_vertices(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let cost = self.params.vertex_eval_cost;
        let fit = if self.exhausted {
            0
        } else if cost.is_zero() {
            n
        } else {
            ((self.quantum - self.consumed).as_micros() / cost.as_micros()).min(n)
        };
        self.consumed += cost * fit;
        if fit < n {
            // The first charge past the fit fails and is still counted.
            self.vertices += fit + 1;
            self.exhausted = true;
            self.consumed = self.quantum;
        } else {
            self.vertices += n;
            if self.consumed == self.quantum && !cost.is_zero() {
                self.exhausted = true;
            }
        }
        fit
    }

    /// The allocated quantum `Q_s(j)`.
    #[must_use]
    pub fn quantum(&self) -> Duration {
        self.quantum
    }

    /// Scheduling time consumed so far, `t_c − t_s`.
    #[must_use]
    pub fn consumed(&self) -> Duration {
        self.consumed
    }

    /// The remaining scheduling time `RQ_s(j) = Q_s − (t_c − t_s)`.
    #[must_use]
    pub fn remaining(&self) -> Duration {
        self.quantum.saturating_sub(self.consumed)
    }

    /// Number of vertices generated (including the one that hit the limit).
    #[must_use]
    pub fn vertices(&self) -> u64 {
        self.vertices
    }

    /// Whether the quantum is used up.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_until_quantum() {
        let mut m = SchedulingMeter::new(
            HostParams::new(Duration::from_micros(10)),
            Duration::from_micros(35),
        );
        assert!(m.charge_vertex());
        assert!(m.charge_vertex());
        assert!(m.charge_vertex());
        assert_eq!(m.consumed(), Duration::from_micros(30));
        assert_eq!(m.remaining(), Duration::from_micros(5));
        assert!(!m.charge_vertex(), "fourth vertex exceeds 35us");
        assert_eq!(
            m.consumed(),
            Duration::from_micros(35),
            "clamped to quantum"
        );
        assert_eq!(m.remaining(), Duration::ZERO);
        assert!(m.exhausted());
        assert_eq!(m.vertices(), 4);
        assert!(!m.charge_vertex(), "stays exhausted");
        assert_eq!(m.vertices(), 5);
    }

    #[test]
    fn exact_fill_exhausts() {
        let mut m = SchedulingMeter::new(
            HostParams::new(Duration::from_micros(10)),
            Duration::from_micros(20),
        );
        assert!(m.charge_vertex());
        assert!(m.charge_vertex());
        assert!(m.exhausted());
        assert_eq!(m.consumed(), Duration::from_micros(20));
    }

    #[test]
    fn free_host_never_exhausts() {
        let mut m = SchedulingMeter::new(HostParams::free(), Duration::ZERO);
        for _ in 0..1_000 {
            assert!(m.charge_vertex());
        }
        assert!(!m.exhausted());
        assert_eq!(m.consumed(), Duration::ZERO);
        assert_eq!(m.vertices(), 1_000);
    }

    #[test]
    fn zero_quantum_with_cost_exhausts_immediately() {
        let mut m = SchedulingMeter::new(HostParams::default(), Duration::ZERO);
        assert!(!m.charge_vertex());
        assert!(m.exhausted());
    }

    #[test]
    fn charge_vertices_matches_a_charge_vertex_loop() {
        let mut pre_exhausted = 0;
        // Quanta up to 40 µs fill exactly at every multiple of the cost.
        for cost in [0, 1, 3, 10] {
            let params = HostParams::new(Duration::from_micros(cost));
            for quantum in 0..=40 {
                for prior in 0..=5 {
                    let mut warm = SchedulingMeter::new(params, Duration::from_micros(quantum));
                    for _ in 0..prior {
                        warm.charge_vertex();
                    }
                    pre_exhausted += u32::from(warm.exhausted());
                    for n in 0..=12 {
                        let mut bulk = warm.clone();
                        let charged = bulk.charge_vertices(n);
                        let mut one_by_one = warm.clone();
                        let fitted = (0..n).take_while(|_| one_by_one.charge_vertex()).count();
                        assert_eq!(
                            (charged, bulk.consumed(), bulk.vertices(), bulk.exhausted()),
                            (
                                fitted as u64,
                                one_by_one.consumed(),
                                one_by_one.vertices(),
                                one_by_one.exhausted()
                            ),
                            "cost {cost}us, quantum {quantum}us, {prior} prior charges, n = {n}"
                        );
                    }
                }
            }
        }
        assert!(
            pre_exhausted > 0,
            "the sweep never starts from a spent meter"
        );
    }

    #[test]
    fn default_params_are_calibrated() {
        assert_eq!(
            HostParams::default().vertex_eval_cost,
            Duration::from_micros(5)
        );
    }
}
