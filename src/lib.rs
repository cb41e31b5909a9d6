//! Umbrella crate for the RT-SADS reproduction: re-exports the public API
//! of every workspace crate so examples and downstream users need a single
//! dependency.
//!
//! * [`des`] — virtual time, seeded randomness and the trace seam,
//! * [`platform`] — the simulated distributed-memory multiprocessor,
//! * [`task`] — the real-time task model,
//! * [`search`] — the search-space framework (representations, engine),
//! * [`sads`] — RT-SADS, D-COLS and the baselines, plus the run driver,
//! * [`db`] — the distributed real-time database substrate,
//! * [`workload`] — scenario/workload generation,
//! * [`stats`] — summaries, Welch tests and table rendering,
//! * [`telemetry`] — metrics registry, JSONL trace export, Perfetto
//!   timelines, run manifests and the per-task decision ledger,
//! * [`explain`] — report files, causal-chain `explain` rendering and the
//!   `report-diff` drift comparison behind the CI determinism gate,
//! * [`snapshot`] — the tracked search-throughput baseline behind
//!   `rtsads-sim bench-snapshot` (`BENCH_search.json`).
//!
//! # Quickstart
//!
//! ```
//! use rtsads_repro::sads::{Algorithm, Driver, DriverConfig};
//! use rtsads_repro::workload::Scenario;
//!
//! let built = Scenario::small().build(7);
//! let report = Driver::new(DriverConfig::new(4, Algorithm::rt_sads())).run(built.tasks);
//! assert!(report.is_consistent());
//! println!("hit ratio: {:.1}%", report.hit_ratio() * 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explain;
pub mod snapshot;

pub use paragon_des as des;
pub use paragon_platform as platform;
pub use rt_stats as stats;
pub use rt_task as task;
pub use rt_telemetry as telemetry;
pub use rt_workload as workload;
pub use rtdb as db;
pub use rtsads as sads;
pub use sched_search as search;
