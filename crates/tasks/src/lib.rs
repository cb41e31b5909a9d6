//! The real-time task model of the RT-SADS reproduction.
//!
//! The paper (Section 2) schedules a set `T` of `n` *aperiodic,
//! non-preemptable, independent* real-time tasks `T_i` on the `m` processors
//! `P_j` of a distributed-memory multiprocessor. Each task is characterized by
//!
//! * a processing time `p_i` ([`Task::processing_time`]),
//! * an arrival time `a_i` ([`Task::arrival`]),
//! * a deadline `d_i` ([`Task::deadline`]), and
//! * a communication cost `c_ij` toward each processor, which is zero if the
//!   task has *affinity* with the processor (its referenced data objects live
//!   in that processor's local memory) and otherwise depends on the
//!   interconnect model ([`CommModel`]): the paper's flat constant `C`, a
//!   2D-mesh distance ([`MeshSpec`]), or a hierarchical node/rack class
//!   ([`TopologySpec`]).
//!
//! Batching (Section 4): the input to scheduling phase `j` is `Batch(j)`; at
//! the end of the phase, scheduled tasks and tasks whose deadlines have
//! already been missed are removed, and newly arrived tasks are added
//! ([`Batch`]).
//!
//! # Example
//!
//! ```
//! use paragon_des::{Duration, Time};
//! use rt_task::{AffinitySet, CommModel, ProcessorId, Task, TaskId};
//!
//! let task = Task::builder(TaskId::new(1))
//!     .processing_time(Duration::from_millis(2))
//!     .arrival(Time::ZERO)
//!     .deadline(Time::from_millis(10))
//!     .affinity(AffinitySet::from_iter([ProcessorId::new(0)]))
//!     .build();
//! let comm = CommModel::constant(Duration::from_millis(1));
//! assert_eq!(comm.cost(&task, ProcessorId::new(0)), Duration::ZERO);
//! assert_eq!(comm.cost(&task, ProcessorId::new(1)), Duration::from_millis(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod affinity;
mod batch;
mod ids;
mod mesh;
mod resources;
mod task;
mod topology;

pub use affinity::AffinitySet;
pub use batch::Batch;
pub use ids::{ProcessorId, TaskId};
pub use mesh::MeshSpec;
pub use resources::{AccessMode, ResourceEats, ResourceId, ResourceRequest};
pub use task::{CommModel, Task, TaskBuilder};
pub use topology::TopologySpec;
