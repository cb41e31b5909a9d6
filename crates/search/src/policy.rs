//! Orderings: which processor each sequence-oriented level serves, and
//! how feasible successors are prioritized in the candidate list. (Every
//! assignment-oriented level fixes its task by `(deadline, batch index)`.)

/// How the sequence-oriented representation fixes the processor served at
/// each tree level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProcessorOrder {
    /// `P_{l mod m}` at level `l` — the round-robin order shown in the
    /// paper's Figure 1.
    #[default]
    RoundRobin,
    /// Fill one processor's whole sequence before moving to the next
    /// ("consecutive sub-problems that deal with one processor at a time"):
    /// the `n` levels are split into `m` contiguous blocks.
    FillFirst,
}

impl ProcessorOrder {
    /// The processor index served at tree level `level` (0-based), for `m`
    /// processors and `n` total tasks.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    #[must_use]
    pub fn processor_at(&self, level: usize, m: usize, n: usize) -> usize {
        assert!(m > 0, "no processors");
        match self {
            ProcessorOrder::RoundRobin => level % m,
            ProcessorOrder::FillFirst => {
                let block = n.div_ceil(m).max(1);
                (level / block).min(m - 1)
            }
        }
    }
}

/// How an expansion's feasible successors are ordered before being pushed on
/// the front of the candidate list (highest priority first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChildOrder {
    /// Minimize the resulting partial-schedule execution time `CE` (the
    /// paper's load-balancing cost function, Section 4.4); ties broken by
    /// the candidate's own completion time.
    #[default]
    LoadBalance,
    /// Earliest candidate completion first (greedy, no global cost).
    EarliestCompletion,
    /// Earliest task deadline first (the EDF-style heuristic sequence-
    /// oriented schedulers use to pick the next task for a processor).
    EarliestDeadline,
    /// Generation order (no heuristic) — the ablation baseline.
    None,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_processor_order() {
        let o = ProcessorOrder::RoundRobin;
        let got: Vec<usize> = (0..6).map(|l| o.processor_at(l, 3, 6)).collect();
        assert_eq!(got, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn fill_first_processor_order() {
        let o = ProcessorOrder::FillFirst;
        // n=6, m=3 -> blocks of 2
        let got: Vec<usize> = (0..6).map(|l| o.processor_at(l, 3, 6)).collect();
        assert_eq!(got, vec![0, 0, 1, 1, 2, 2]);
        // n=5, m=3 -> blocks of 2, last block short
        let got: Vec<usize> = (0..5).map(|l| o.processor_at(l, 3, 5)).collect();
        assert_eq!(got, vec![0, 0, 1, 1, 2]);
        // levels past n clamp to the last processor
        assert_eq!(o.processor_at(99, 3, 5), 2);
    }
}
