//! Search-space framework for dynamic real-time multiprocessor scheduling.
//!
//! Section 3 of the paper casts scheduling as an incremental search for a
//! feasible schedule in a tree `G(V,E)`: vertices are task-to-processor
//! assignments `(T_i → P_j)`, a root-to-vertex path is a feasible partial
//! schedule, and extending a path adds one assignment. Candidate vertices are
//! kept in a candidate list `CL`; when an expansion yields no feasible
//! successor the search *backtracks* to the first vertex of `CL`, and when
//! `CL` empties it has hit a *dead-end*.
//!
//! The crate separates the three knobs the paper varies:
//!
//! * [`Representation`] — *assignment-oriented* (each level fixes the task,
//!   the search picks its processor; Figure 2) versus *sequence-oriented*
//!   (each level fixes the processor, the search picks its task; Figure 1),
//! * [`ChildOrder`] — the heuristic/cost ordering of feasible successors
//!   (front of `CL` = highest priority),
//! * the scheduling-time budget — a
//!   [`SchedulingMeter`](paragon_platform::SchedulingMeter) charging one
//!   virtual evaluation cost per generated vertex, so a phase can be
//!   interrupted "at the end of any iteration" exactly as on the Paragon.
//!
//! The engine ([`search_schedule`]) performs the depth-first search and
//! returns the best feasible (partial) schedule found plus diagnostics
//! ([`SearchStats`]) that the experiment harness uses to validate the
//! paper's dead-end and processor-coverage conjectures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod policy;
mod repr;
mod state;

#[cfg(any(test, feature = "replay-oracle"))]
pub use engine::search_schedule_replay;
pub use engine::{
    placement_probe, search_schedule, search_schedule_with, PhaseProvenance, PlacementEvidence,
    Pruning, ScreenEvidence, SearchOutcome, SearchParams, SearchScratch, SearchStats, Termination,
};
pub use policy::{ChildOrder, ProcessorOrder, TaskOrder};
pub use repr::Representation;
pub use state::{Assignment, PathState};
