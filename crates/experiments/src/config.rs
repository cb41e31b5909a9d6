//! Shared experiment configuration and the calibrated platform constants.

use paragon_des::Duration;
use paragon_platform::HostParams;
use rt_task::CommModel;
use rt_workload::Scenario;
use serde::{Deserialize, Serialize};

/// Harness-wide knobs (scale, replication count, output).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Independent runs per point (the paper uses 10).
    pub runs: usize,
    /// Transactions per run (the paper uses 1000).
    pub transactions: usize,
    /// Base seed; run `r` of a point uses `seed_base + r`.
    pub seed_base: u64,
    /// Optional scenario override loaded from a JSON file (`--scenario`);
    /// each experiment still applies its own sweeps (workers, replication
    /// rate, slack factor) on top.
    #[serde(default)]
    pub base: Option<Scenario>,
    /// Processor failure rates (failures/processor/second) the `ext-faults`
    /// experiment sweeps (`--fault-rate`). Empty means the default sweep.
    #[serde(default)]
    pub fault_rates: Vec<f64>,
    /// Mean time to repair in milliseconds for `ext-faults` (`--mttr`).
    /// Zero means fail-stop: failed processors never return.
    #[serde(default)]
    pub mttr_ms: u64,
}

impl ExperimentConfig {
    /// The paper's scale: 10 runs × 1000 transactions.
    #[must_use]
    pub fn paper() -> Self {
        ExperimentConfig {
            runs: 10,
            transactions: 1_000,
            seed_base: 1_998, // the venue year; any constant works
            base: None,
            fault_rates: Vec::new(),
            mttr_ms: 0,
        }
    }

    /// A fast configuration for smoke tests and CI: 3 runs × 200
    /// transactions.
    #[must_use]
    pub fn quick() -> Self {
        ExperimentConfig {
            runs: 3,
            transactions: 200,
            seed_base: 1_998,
            base: None,
            fault_rates: Vec::new(),
            mttr_ms: 0,
        }
    }

    /// The failure-rate sweep `ext-faults` runs: the configured list, or a
    /// default covering fault-free through heavily degraded.
    #[must_use]
    pub fn fault_rate_sweep(&self) -> Vec<f64> {
        if self.fault_rates.is_empty() {
            vec![0.0, 2.0, 4.0, 8.0, 16.0]
        } else {
            self.fault_rates.clone()
        }
    }

    /// The configured repair time, `None` for fail-stop.
    #[must_use]
    pub fn mttr(&self) -> Option<Duration> {
        (self.mttr_ms > 0).then(|| Duration::from_millis(self.mttr_ms))
    }

    /// The base scenario all experiments derive from: the `--scenario`
    /// override if one was loaded, else the paper's Section 5.1 parameters —
    /// either way at this config's transaction scale.
    #[must_use]
    pub fn base_scenario(&self) -> Scenario {
        let mut s = self.base.clone().unwrap_or_else(Scenario::paper_defaults);
        s.transactions = self.transactions;
        s
    }

    /// Loads a scenario override from JSON text (see `--scenario`).
    ///
    /// # Errors
    ///
    /// Returns the serde error message on malformed JSON, and
    /// [`Scenario::validate`]'s message on degenerate parameters.
    pub fn with_scenario_json(mut self, json: &str) -> Result<Self, String> {
        let scenario: Scenario = serde_json::from_str(json).map_err(|e| e.to_string())?;
        scenario.validate()?;
        self.base = Some(scenario);
        Ok(self)
    }

    /// Serializes the effective base scenario as pretty JSON (see
    /// `--dump-scenario`).
    #[must_use]
    pub fn scenario_json(&self) -> String {
        serde_json::to_string_pretty(&self.base_scenario()).expect("scenario serializes infallibly")
    }
}

/// Calibrated interconnect constant `C` (2 ms): fetching a remote
/// sub-database costs a fifth of scanning it. Large enough that a keyed
/// (index-priced, tight-deadline) transaction *cannot* afford a non-affine
/// processor — which is what makes low replication rates stress processor
/// selection, the effect Figures 5 and 6 measure.
#[must_use]
pub fn comm_model() -> CommModel {
    CommModel::constant(Duration::from_millis(2))
}

/// Calibrated host cost: 1 µs of scheduling time per generated search
/// vertex — an order of magnitude below the 10 µs checking iteration, the
/// regime in which the self-adjusting quantum admits useful search depth.
#[must_use]
pub fn host_params() -> HostParams {
    HostParams::new(Duration::from_micros(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_the_text() {
        let c = ExperimentConfig::paper();
        assert_eq!(c.runs, 10);
        assert_eq!(c.transactions, 1_000);
        assert_eq!(c.base_scenario().transactions, 1_000);
        assert_eq!(c.base_scenario().partitions, 10);
    }

    #[test]
    fn quick_config_is_smaller() {
        let q = ExperimentConfig::quick();
        assert!(q.runs < ExperimentConfig::paper().runs);
        assert!(q.transactions < ExperimentConfig::paper().transactions);
    }

    #[test]
    fn scenario_json_round_trips() {
        let config = ExperimentConfig::quick();
        let json = config.scenario_json();
        let loaded = ExperimentConfig::quick().with_scenario_json(&json).unwrap();
        assert_eq!(loaded.base_scenario(), config.base_scenario());
        // overrides survive: change a field in the JSON and see it land
        let tweaked = json.replace("\"partitions\": 10", "\"partitions\": 5");
        let loaded = ExperimentConfig::quick()
            .with_scenario_json(&tweaked)
            .unwrap();
        assert_eq!(loaded.base_scenario().partitions, 5);
        assert!(ExperimentConfig::quick()
            .with_scenario_json("not json")
            .is_err());
    }

    #[test]
    fn scenario_json_with_degenerate_parameters_is_rejected() {
        let json = ExperimentConfig::quick()
            .scenario_json()
            .replace("\"sf\": 1.0", "\"sf\": 0.0");
        let err = ExperimentConfig::quick()
            .with_scenario_json(&json)
            .expect_err("sf 0 is degenerate");
        assert!(err.contains("`sf`"), "got {err:?}");
    }

    #[test]
    fn fault_sweep_defaults_and_overrides() {
        let c = ExperimentConfig::quick();
        assert_eq!(c.fault_rate_sweep(), vec![0.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!(c.mttr(), None, "zero mttr means fail-stop");
        let mut c = c;
        c.fault_rates = vec![1.5];
        c.mttr_ms = 250;
        assert_eq!(c.fault_rate_sweep(), vec![1.5]);
        assert_eq!(c.mttr(), Some(Duration::from_millis(250)));
    }

    #[test]
    fn calibration_constants() {
        assert_eq!(comm_model().constant_cost(), Duration::from_millis(2));
        assert_eq!(host_params().vertex_eval_cost, Duration::from_micros(1));
    }
}
