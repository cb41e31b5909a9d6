//! The two search representations of Section 3.

use crate::policy::ProcessorOrder;
use crate::state::PathState;

/// How the scheduling tree `G` is laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Representation {
    /// Figure 2: at each level a *task* is fixed, the earliest-deadline
    /// unassigned one (ties by batch index), and the branches are the
    /// processors it could be assigned to. All processors are reconsidered
    /// at every level, so backtracking "can undo or resequence tasks on all
    /// processors". What RT-SADS uses.
    AssignmentOriented,
    /// Figure 1: at each level a *processor* is fixed (by `processor_order`)
    /// and the branches are the remaining tasks that could run on it.
    /// Backtracking at a level can only swap the task given to that level's
    /// processor.
    SequenceOriented {
        /// Which processor each level serves.
        processor_order: ProcessorOrder,
        /// Whether a level whose processor accepts no remaining task may
        /// advance to the next processor instead of dead-ending. The paper's
        /// D-COLS does *not* do this — its frequent dead-ends are exactly
        /// the behaviour Section 3 predicts — but the variant is exposed for
        /// the ablation experiments.
        skip_processors: bool,
    },
}

impl Representation {
    /// The canonical sequence-oriented representation (round-robin
    /// processors, no processor skipping) — what D-COLS uses.
    #[must_use]
    pub fn sequence_oriented() -> Self {
        Representation::SequenceOriented {
            processor_order: ProcessorOrder::RoundRobin,
            skip_processors: false,
        }
    }

    /// Whether this is the assignment-oriented layout.
    #[must_use]
    pub fn is_assignment_oriented(&self) -> bool {
        matches!(self, Representation::AssignmentOriented)
    }

    /// The maximum number of *skip rounds* an expansion may attempt when a
    /// round yields no feasible successor.
    ///
    /// Assignment-oriented search moves on to the next unassigned task (the
    /// blocked task stays in the batch for a later phase — "the search will
    /// continue by examining other vertices for inclusion in the
    /// schedule"). The canonical sequence-oriented search has no such move
    /// and dead-ends; the `skip_processors` variant may advance through the
    /// remaining processors once each.
    #[must_use]
    pub fn max_skips(&self, state: &PathState) -> usize {
        match self {
            Representation::AssignmentOriented => {
                (state.n_tasks() - state.depth()).saturating_sub(1)
            }
            Representation::SequenceOriented {
                skip_processors, ..
            } => {
                if *skip_processors {
                    state.processors() - 1
                } else {
                    0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_des::Time;

    #[test]
    fn constructors_and_predicates() {
        assert!(Representation::AssignmentOriented.is_assignment_oriented());
        assert!(!Representation::sequence_oriented().is_assignment_oriented());
    }

    #[test]
    fn max_skips_bound_each_layouts_skip_rounds() {
        // Assignment-oriented: every unassigned task after the first.
        let state = PathState::new(vec![Time::ZERO; 2], 3);
        assert_eq!(Representation::AssignmentOriented.max_skips(&state), 2);
        // The skipping sequence-oriented variant: every other processor.
        let state = PathState::new(vec![Time::ZERO; 3], 2);
        let repr = Representation::SequenceOriented {
            processor_order: ProcessorOrder::RoundRobin,
            skip_processors: true,
        };
        assert_eq!(repr.max_skips(&state), 2);
        // the canonical (non-skipping) D-COLS never skips
        assert_eq!(Representation::sequence_oriented().max_skips(&state), 0);
    }
}
