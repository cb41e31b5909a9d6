//! Simulated distributed-memory multiprocessor — the reproduction's stand-in
//! for the paper's Intel Paragon.
//!
//! The machine consists of `m` *working processors*, each with a private
//! local memory and a FIFO ready queue, plus one dedicated *host* processor
//! that runs the scheduling algorithm concurrently with task execution
//! (paper, Sections 2 and 4). The interconnect cost is captured by
//! [`rt_task::CommModel`]: the paper's cut-through-routed machine charges
//! the distance-independent constant `C` for every non-affine execution,
//! while a sharded cluster ([`rt_task::TopologySpec`]) charges by hierarchy
//! class — near-zero intra-node, `C` inter-node, `C'` inter-rack. The
//! paper's flat model is exactly the 1-node special case of the hierarchy.
//!
//! Because working processors execute non-preemptively from FIFO queues and
//! new work is only ever appended (a delivered schedule never preempts or
//! reorders queued work), task start/completion times can be computed eagerly
//! at delivery time — the simulation stays exact without per-tick events.
//!
//! * [`Machine`] — the processors plus delivery/completion bookkeeping,
//! * [`Placement`] — which local memories hold which data objects, deriving
//!   task affinities,
//! * [`HostParams`]/[`SchedulingMeter`] — the virtual cost of running the
//!   scheduler on the host node.
//!
//! # Example
//!
//! ```
//! use paragon_des::{Duration, Time};
//! use paragon_platform::{Dispatch, Machine, MachineConfig};
//! use rt_task::{AffinitySet, CommModel, ProcessorId, Task, TaskId};
//!
//! let mut machine = Machine::new(MachineConfig {
//!     workers: 2,
//!     comm: CommModel::constant(Duration::from_micros(100)),
//! });
//! let task = Task::builder(TaskId::new(0))
//!     .processing_time(Duration::from_millis(1))
//!     .deadline(Time::from_millis(10))
//!     .affinity(AffinitySet::from_iter([ProcessorId::new(0)]))
//!     .build();
//! let recs = machine.deliver(vec![Dispatch { task, processor: ProcessorId::new(1) }], Time::ZERO);
//! // non-affine processor: pays the 100us communication cost
//! assert_eq!(recs[0].completion, Time::from_micros(1_100));
//! assert!(recs[0].met_deadline);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod host;
mod machine;
mod placement;
mod worker;

pub use host::{HostParams, SchedulingMeter};
pub use machine::{CompletionRecord, Dispatch, Machine, MachineConfig};
pub use placement::{DataObjectId, Placement};
pub use worker::{FailedWork, Worker, MAX_INPUT_SPAN, UNAVAILABLE};
