//! Task-to-processor affinity sets.
//!
//! A task has *affinity* with a processor when the data objects it references
//! reside in that processor's local memory (paper, Section 2). The degree of
//! affinity in a system is controlled by the data replication rate: high
//! replication means each task has affinity with many processors.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::ProcessorId;

/// The set of processors a task has affinity with, stored as a bitset.
///
/// Executing the task on a member processor incurs no communication cost;
/// executing it anywhere else costs the interconnect constant `C`.
///
/// # Example
///
/// ```
/// use rt_task::{AffinitySet, ProcessorId};
///
/// let mut set = AffinitySet::new();
/// set.insert(ProcessorId::new(2));
/// set.insert(ProcessorId::new(5));
/// assert!(set.contains(ProcessorId::new(2)));
/// assert!(!set.contains(ProcessorId::new(3)));
/// assert_eq!(set.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct AffinitySet {
    words: Vec<u64>,
}

impl AffinitySet {
    /// Creates an empty affinity set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set containing every processor in `P0..P{count-1}` —
    /// full replication, where any processor can run the task locally.
    #[must_use]
    pub fn all(count: usize) -> Self {
        let mut set = AffinitySet::new();
        for p in ProcessorId::all(count) {
            set.insert(p);
        }
        set
    }

    /// Adds a processor to the set. Returns `true` if it was newly inserted.
    pub fn insert(&mut self, proc: ProcessorId) -> bool {
        let (word, bit) = Self::locate(proc);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let had = self.words[word] & (1 << bit) != 0;
        self.words[word] |= 1 << bit;
        !had
    }

    /// Removes a processor from the set. Returns `true` if it was present.
    pub fn remove(&mut self, proc: ProcessorId) -> bool {
        let (word, bit) = Self::locate(proc);
        if word >= self.words.len() {
            return false;
        }
        let had = self.words[word] & (1 << bit) != 0;
        self.words[word] &= !(1 << bit);
        self.trim();
        had
    }

    /// Whether `proc` is a member.
    #[must_use]
    #[inline]
    pub fn contains(&self, proc: ProcessorId) -> bool {
        let (word, bit) = Self::locate(proc);
        self.words.get(word).is_some_and(|w| w & (1 << bit) != 0)
    }

    /// Number of member processors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty (the task has affinity with no processor and
    /// always pays the communication cost).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over member processors in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessorId> + '_ {
        self.members_in(0, usize::MAX)
    }

    /// Iterates over the members inside the half-open index range
    /// `[lo, hi)` in ascending order, visiting only set bits: a member
    /// costs one step and an empty word one skip, whatever the width of
    /// the range. Members at or above `hi` are never visited.
    pub fn members_in(&self, lo: usize, hi: usize) -> impl Iterator<Item = ProcessorId> + '_ {
        let word = lo / 64;
        let bits = match self.words.get(word) {
            Some(&w) if lo < hi => w & (u64::MAX << (lo % 64)),
            _ => 0,
        };
        Members {
            words: &self.words,
            word,
            bits,
            hi,
        }
    }

    /// The fraction of the `total` processors this task has affinity with —
    /// the paper's "degree of affinity" indicator.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero.
    #[must_use]
    pub fn degree(&self, total: usize) -> f64 {
        assert!(total > 0, "degree requires a non-zero processor count");
        self.len() as f64 / total as f64
    }

    /// Whether any member falls inside the half-open index range `[lo, hi)`
    /// — the shard-membership test used by hierarchical topologies. Runs on
    /// whole words with boundary masks, not per-bit probes.
    #[must_use]
    pub fn intersects_range(&self, lo: usize, hi: usize) -> bool {
        if lo >= hi {
            return false;
        }
        let start_word = lo / 64;
        let end_word = (hi - 1) / 64;
        for wi in start_word..=end_word {
            let Some(&w) = self.words.get(wi) else { break };
            let mut mask = u64::MAX;
            if wi == start_word {
                mask &= u64::MAX << (lo % 64);
            }
            if wi == end_word {
                let top = hi - wi * 64;
                if top < 64 {
                    mask &= (1u64 << top) - 1;
                }
            }
            if w & mask != 0 {
                return true;
            }
        }
        false
    }

    /// The set of processors present in both `self` and `other` — used to
    /// compute the affinity of a task referencing several data objects (only
    /// processors holding *all* of them serve it locally).
    #[must_use]
    pub fn intersection(&self, other: &AffinitySet) -> AffinitySet {
        let n = self.words.len().min(other.words.len());
        let words = (0..n).map(|i| self.words[i] & other.words[i]).collect();
        let mut set = AffinitySet { words };
        set.trim();
        set
    }

    /// The set of processors present in either `self` or `other`.
    #[must_use]
    pub fn union(&self, other: &AffinitySet) -> AffinitySet {
        let n = self.words.len().max(other.words.len());
        let words = (0..n)
            .map(|i| {
                self.words.get(i).copied().unwrap_or(0) | other.words.get(i).copied().unwrap_or(0)
            })
            .collect();
        AffinitySet { words }
    }

    fn locate(proc: ProcessorId) -> (usize, usize) {
        (proc.index() / 64, proc.index() % 64)
    }

    /// Drops trailing zero words so that equal sets compare equal regardless
    /// of their mutation history.
    fn trim(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }
}

/// Ascending walk over the set bits of an [`AffinitySet`] below a bound
/// (see [`AffinitySet::iter`] and [`AffinitySet::members_in`]).
struct Members<'a> {
    words: &'a [u64],
    /// Index of the word `bits` was taken from.
    word: usize,
    /// The not yet visited members of `words[word]`.
    bits: u64,
    /// Exclusive bound on the yielded indices.
    hi: usize,
}

impl Iterator for Members<'_> {
    type Item = ProcessorId;

    #[inline]
    fn next(&mut self) -> Option<ProcessorId> {
        while self.bits == 0 {
            self.word += 1;
            if self.word >= self.words.len() || self.word * 64 >= self.hi {
                return None;
            }
            self.bits = self.words[self.word];
        }
        let index = self.word * 64 + self.bits.trailing_zeros() as usize;
        if index >= self.hi {
            self.bits = 0;
            return None;
        }
        self.bits &= self.bits - 1;
        Some(ProcessorId::new(index))
    }
}

impl FromIterator<ProcessorId> for AffinitySet {
    fn from_iter<I: IntoIterator<Item = ProcessorId>>(iter: I) -> Self {
        let mut set = AffinitySet::new();
        for p in iter {
            set.insert(p);
        }
        set
    }
}

impl Extend<ProcessorId> for AffinitySet {
    fn extend<I: IntoIterator<Item = ProcessorId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl fmt::Display for AffinitySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = AffinitySet::new();
        assert!(s.is_empty());
        assert!(s.insert(ProcessorId::new(3)));
        assert!(
            !s.insert(ProcessorId::new(3)),
            "double insert reports false"
        );
        assert!(s.contains(ProcessorId::new(3)));
        assert!(!s.contains(ProcessorId::new(2)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(ProcessorId::new(3)));
        assert!(!s.remove(ProcessorId::new(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn works_past_64_processors() {
        let mut s = AffinitySet::new();
        s.insert(ProcessorId::new(0));
        s.insert(ProcessorId::new(63));
        s.insert(ProcessorId::new(64));
        s.insert(ProcessorId::new(130));
        assert_eq!(s.len(), 4);
        assert!(s.contains(ProcessorId::new(130)));
        assert!(!s.contains(ProcessorId::new(129)));
        let members: Vec<usize> = s.iter().map(ProcessorId::index).collect();
        assert_eq!(members, vec![0, 63, 64, 130]);
    }

    #[test]
    fn all_covers_every_processor() {
        let s = AffinitySet::all(10);
        assert_eq!(s.len(), 10);
        for p in ProcessorId::all(10) {
            assert!(s.contains(p));
        }
        assert!(!s.contains(ProcessorId::new(10)));
        assert_eq!(s.degree(10), 1.0);
    }

    #[test]
    fn degree_is_fraction() {
        let s: AffinitySet = [0, 1, 2].into_iter().map(ProcessorId::new).collect();
        assert!((s.degree(10) - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-zero processor count")]
    fn degree_rejects_zero_total() {
        let _ = AffinitySet::new().degree(0);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut s: AffinitySet = ProcessorId::all(2).collect();
        s.extend([ProcessorId::new(7)]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(ProcessorId::new(7)));
    }

    #[test]
    fn display_lists_members() {
        let s: AffinitySet = [1usize, 4].into_iter().map(ProcessorId::new).collect();
        assert_eq!(s.to_string(), "{P1,P4}");
        assert_eq!(AffinitySet::new().to_string(), "{}");
    }

    #[test]
    fn intersection_and_union() {
        let a: AffinitySet = [0usize, 1, 70].into_iter().map(ProcessorId::new).collect();
        let b: AffinitySet = [1usize, 2].into_iter().map(ProcessorId::new).collect();
        let i = a.intersection(&b);
        assert_eq!(
            i.iter().map(ProcessorId::index).collect::<Vec<_>>(),
            vec![1]
        );
        let u = a.union(&b);
        assert_eq!(
            u.iter().map(ProcessorId::index).collect::<Vec<_>>(),
            vec![0, 1, 2, 70]
        );
        // asymmetric word lengths in both directions
        assert_eq!(b.intersection(&a), i);
        assert_eq!(b.union(&a), u);
        // identities
        assert_eq!(a.intersection(&a), a);
        assert_eq!(a.union(&a), a);
        assert!(a.intersection(&AffinitySet::new()).is_empty());
    }

    #[test]
    fn intersects_range_matches_naive_scan() {
        let s: AffinitySet = [0usize, 5, 63, 64, 130]
            .into_iter()
            .map(ProcessorId::new)
            .collect();
        for lo in 0..140 {
            for hi in lo..141 {
                let naive = (lo..hi).any(|p| s.contains(ProcessorId::new(p)));
                assert_eq!(
                    s.intersects_range(lo, hi),
                    naive,
                    "range [{lo},{hi}) disagrees with the naive scan"
                );
            }
        }
        assert!(!s.intersects_range(10, 10), "empty range never intersects");
        assert!(
            !s.intersects_range(20, 10),
            "inverted range never intersects"
        );
        assert!(!AffinitySet::new().intersects_range(0, 1_000));
    }

    #[test]
    fn set_bit_walks_yield_exactly_the_members() {
        use paragon_des::SimRng;
        // Sets of 130..=260 bits (three to five words) built from the
        // word-edge bits 0, 63, 64, 127 and the last bit plus random
        // inserts, thinned by random removes; every other set gets the
        // edge bits back. Both walks must yield, in ascending order,
        // exactly the indices `contains` reports.
        let mut rng = SimRng::seed_from(1998);
        for round in 0..200 {
            let width = rng.uniform_usize(130..261);
            let edges = [0, 63, 64, 127, width - 1].map(ProcessorId::new);
            let mut s: AffinitySet = edges.into_iter().collect();
            for _ in 0..rng.uniform_usize(0..width) {
                s.insert(ProcessorId::new(rng.uniform_usize(0..width)));
            }
            for _ in 0..rng.uniform_usize(0..width) {
                s.remove(ProcessorId::new(rng.uniform_usize(0..width)));
            }
            if round % 2 == 0 {
                s.extend(edges);
            }
            let want = |lo: usize, hi: usize| -> Vec<usize> {
                (lo..hi.min(width + 64))
                    .filter(|&p| s.contains(ProcessorId::new(p)))
                    .collect()
            };
            let all: Vec<usize> = s.iter().map(ProcessorId::index).collect();
            assert_eq!(all, want(0, width + 64));
            assert_eq!(all.len(), s.len());
            for _ in 0..20 {
                let lo = rng.uniform_usize(0..width + 2);
                let hi = rng.uniform_usize(0..width + 70);
                let got: Vec<usize> = s.members_in(lo, hi).map(ProcessorId::index).collect();
                assert_eq!(got, want(lo, hi), "members_in({lo}, {hi}) of {s}");
            }
            for (lo, hi) in [(0, 64), (63, 65), (64, 128), (127, width), (0, width - 1)] {
                let got: Vec<usize> = s.members_in(lo, hi).map(ProcessorId::index).collect();
                assert_eq!(got, want(lo, hi), "members_in({lo}, {hi}) of {s}");
            }
        }
        assert_eq!(AffinitySet::new().iter().count(), 0);
        assert_eq!(AffinitySet::all(200).members_in(300, 400).count(), 0);
    }

    #[test]
    fn remove_out_of_range_is_noop() {
        let mut s = AffinitySet::new();
        assert!(!s.remove(ProcessorId::new(999)));
    }
}
