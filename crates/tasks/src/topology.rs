//! A hierarchical cluster topology: processors grouped into nodes, nodes
//! grouped into racks.
//!
//! The paper's platform model prices every non-affine execution at the
//! distance-independent constant `C`. That abstraction holds inside one
//! tightly-coupled machine, but a sharded cluster has (at least) three cost
//! classes: fetching from a processor in the same node is near-free,
//! crossing nodes pays the interconnect constant `C`, and crossing racks
//! pays a larger `C'`. This module supplies that hierarchy. A 1-node,
//! 1-rack topology with all classes set to `C` degenerates exactly to the
//! paper's flat model ([`TopologySpec::flat`]) — the differential suite
//! pins the two bit-identical.

use paragon_des::Duration;
use serde::{Deserialize, Serialize};

use crate::affinity::AffinitySet;
use crate::ids::ProcessorId;

/// Geometry and per-class communication costs of a processor → node → rack
/// hierarchy.
///
/// Processors are assigned to nodes contiguously and as evenly as possible
/// (the first `workers % nodes` nodes get one extra processor), and nodes to
/// racks the same way, so membership is pure arithmetic — no lookup tables.
///
/// `fanout` is a hint for shard-first candidate generation: how many of the
/// best-screening nodes the search should expand per skip round.
///
/// # Example
///
/// ```
/// use rt_task::{ProcessorId, TopologySpec};
///
/// // 8 processors on 4 nodes across 2 racks; free intra-node, 500us
/// // inter-node, 2000us inter-rack.
/// let topo = TopologySpec::new(8, 4, 2, 0, 500, 2_000);
/// assert_eq!(topo.node_of(ProcessorId::new(3)), 1);
/// assert_eq!(topo.node_range(1), (2, 4));
/// assert_eq!(topo.rack_of_node(3), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TopologySpec {
    workers: u32,
    nodes: u32,
    racks: u32,
    intra_node_us: u64,
    inter_node_us: u64,
    inter_rack_us: u64,
    fanout: u32,
}

impl TopologySpec {
    /// The default number of best-screening nodes the search expands per
    /// skip round.
    pub const DEFAULT_FANOUT: u32 = 2;

    /// Creates a topology of `workers` processors on `nodes` nodes across
    /// `racks` racks, with the given per-class costs (microseconds).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= racks <= nodes <= workers` and the costs are
    /// non-decreasing in distance (`intra <= inter_node <= inter_rack`).
    #[must_use]
    pub fn new(
        workers: u32,
        nodes: u32,
        racks: u32,
        intra_node_us: u64,
        inter_node_us: u64,
        inter_rack_us: u64,
    ) -> Self {
        assert!(
            1 <= racks && racks <= nodes && nodes <= workers,
            "topology requires 1 <= racks ({racks}) <= nodes ({nodes}) <= workers ({workers})"
        );
        assert!(
            intra_node_us <= inter_node_us && inter_node_us <= inter_rack_us,
            "topology costs must be non-decreasing in distance: \
             intra {intra_node_us} <= inter-node {inter_node_us} <= inter-rack {inter_rack_us}"
        );
        TopologySpec {
            workers,
            nodes,
            racks,
            intra_node_us,
            inter_node_us,
            inter_rack_us,
            fanout: Self::DEFAULT_FANOUT,
        }
    }

    /// The paper's flat model expressed as a degenerate topology: one node,
    /// one rack, every class costing `c`. [`TopologySpec::cost`] is then
    /// pointwise identical to `CommModel::constant(c)`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn flat(workers: u32, c: Duration) -> Self {
        let us = c.as_micros();
        TopologySpec::new(workers, 1, 1, us, us, us)
    }

    /// Overrides the shard-first fanout hint.
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is zero.
    #[must_use]
    pub fn with_fanout(mut self, fanout: u32) -> Self {
        assert!(fanout > 0, "fanout must be non-zero");
        self.fanout = fanout;
        self
    }

    /// Number of processors.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers as usize
    }

    /// Number of nodes (shards).
    #[must_use]
    #[inline]
    pub fn nodes(&self) -> usize {
        self.nodes as usize
    }

    /// Number of racks.
    #[must_use]
    pub fn racks(&self) -> usize {
        self.racks as usize
    }

    /// The shard-first fanout hint.
    #[must_use]
    #[inline]
    pub fn fanout(&self) -> usize {
        self.fanout as usize
    }

    /// Cost of an intra-node fetch.
    #[must_use]
    pub fn intra_node_cost(&self) -> Duration {
        Duration::from_micros(self.intra_node_us)
    }

    /// Cost of an inter-node (same rack) fetch — the paper's `C`.
    #[must_use]
    pub fn inter_node_cost(&self) -> Duration {
        Duration::from_micros(self.inter_node_us)
    }

    /// Cost of an inter-rack fetch — `C'`.
    #[must_use]
    pub fn inter_rack_cost(&self) -> Duration {
        Duration::from_micros(self.inter_rack_us)
    }

    /// The worst cost class this topology can charge: inter-rack when there
    /// is more than one rack, inter-node when more than one node, intra-node
    /// otherwise. An affinity-free task pays this everywhere.
    #[must_use]
    pub fn worst_class(&self) -> Duration {
        if self.racks > 1 {
            self.inter_rack_cost()
        } else if self.nodes > 1 {
            self.inter_node_cost()
        } else {
            self.intra_node_cost()
        }
    }

    /// The node hosting processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` lies outside the topology.
    #[must_use]
    pub fn node_of(&self, p: ProcessorId) -> usize {
        assert!(
            p.index() < self.workers(),
            "processor {p} outside a {}-worker topology",
            self.workers
        );
        Self::part_of(self.workers(), self.nodes(), p.index())
    }

    /// The half-open processor range `[lo, hi)` of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a valid node index.
    #[must_use]
    #[inline]
    pub fn node_range(&self, n: usize) -> (usize, usize) {
        assert!(n < self.nodes(), "node {n} outside {} nodes", self.nodes);
        Self::part_range(self.workers(), self.nodes(), n)
    }

    /// The rack hosting node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a valid node index.
    #[must_use]
    pub fn rack_of_node(&self, n: usize) -> usize {
        assert!(n < self.nodes(), "node {n} outside {} nodes", self.nodes);
        Self::part_of(self.nodes(), self.racks(), n)
    }

    /// The half-open *processor* range `[lo, hi)` covered by rack `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a valid rack index.
    #[must_use]
    pub fn rack_proc_range(&self, r: usize) -> (usize, usize) {
        assert!(r < self.racks(), "rack {r} outside {} racks", self.racks);
        let (node_lo, node_hi) = Self::part_range(self.nodes(), self.racks(), r);
        let (lo, _) = self.node_range(node_lo);
        let (_, hi) = self.node_range(node_hi - 1);
        (lo, hi)
    }

    /// The communication cost for executing a task with `affinity` on `p`:
    /// zero on an affine processor, then the cheapest class whose span still
    /// reaches an affine processor (intra-node, inter-node, inter-rack). A
    /// task with no affinity pays [`TopologySpec::worst_class`] everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `p` lies outside the topology.
    #[must_use]
    pub fn cost(&self, affinity: &AffinitySet, p: ProcessorId) -> Duration {
        if affinity.contains(p) {
            return Duration::ZERO;
        }
        self.non_affine_cost(affinity, self.node_of(p))
    }

    /// The cost class every non-affine processor of node `n` pays: the
    /// class depends on the processor only through its node, so all of
    /// them share it. Intra-node when the node holds an affine processor,
    /// else inter-node or inter-rack; [`TopologySpec::worst_class`] for a
    /// task with no affinity.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a valid node index.
    #[must_use]
    #[inline]
    pub fn non_affine_cost(&self, affinity: &AffinitySet, n: usize) -> Duration {
        let (lo, hi) = self.node_range(n);
        if affinity.is_empty() {
            return self.worst_class();
        }
        if affinity.intersects_range(lo, hi) {
            return self.intra_node_cost();
        }
        self.beyond_node_cost(affinity, n)
    }

    /// The minimum of [`TopologySpec::cost`] over the processors of node
    /// `n`: zero when the node holds an affine processor, else the class
    /// its non-affine processors pay. Added to the node's earliest finish
    /// it bounds every member's completion from below, so a shard screen
    /// built on it never rules out a feasible node.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a valid node index.
    #[must_use]
    #[inline]
    pub fn min_node_cost(&self, affinity: &AffinitySet, n: usize) -> Duration {
        let (lo, hi) = self.node_range(n);
        if affinity.is_empty() {
            return self.worst_class();
        }
        if affinity.intersects_range(lo, hi) {
            return Duration::ZERO;
        }
        self.beyond_node_cost(affinity, n)
    }

    /// The class of a fetch from outside node `n` for a task with a
    /// non-empty `affinity` and no affine processor on `n`: inter-node when
    /// `n`'s rack holds one, else inter-rack.
    #[inline]
    fn beyond_node_cost(&self, affinity: &AffinitySet, n: usize) -> Duration {
        let (rlo, rhi) = self.rack_proc_range(self.rack_of_node(n));
        if affinity.intersects_range(rlo, rhi) {
            self.inter_node_cost()
        } else {
            self.inter_rack_cost()
        }
    }

    /// Which of `parts` contiguous balanced partitions of `count` items item
    /// `i` falls into.
    fn part_of(count: usize, parts: usize, i: usize) -> usize {
        let base = count / parts;
        let rem = count % parts;
        let fat = rem * (base + 1);
        if i < fat {
            i / (base + 1)
        } else {
            rem + (i - fat) / base
        }
    }

    /// The half-open item range of partition `p` under the same scheme.
    fn part_range(count: usize, parts: usize, p: usize) -> (usize, usize) {
        let base = count / parts;
        let rem = count % parts;
        let lo = p * base + p.min(rem);
        let hi = lo + base + usize::from(p < rem);
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aff(procs: &[usize]) -> AffinitySet {
        procs.iter().copied().map(ProcessorId::new).collect()
    }

    #[test]
    fn balanced_contiguous_partition() {
        // 10 workers on 3 nodes: sizes 4, 3, 3.
        let t = TopologySpec::new(10, 3, 1, 0, 100, 100);
        assert_eq!(t.node_range(0), (0, 4));
        assert_eq!(t.node_range(1), (4, 7));
        assert_eq!(t.node_range(2), (7, 10));
        for p in 0..10usize {
            let n = t.node_of(ProcessorId::new(p));
            let (lo, hi) = t.node_range(n);
            assert!(lo <= p && p < hi, "P{p} not inside its node {n}");
        }
    }

    #[test]
    fn racks_partition_nodes() {
        // 8 workers, 4 nodes (2 each), 2 racks (2 nodes each).
        let t = TopologySpec::new(8, 4, 2, 0, 100, 400);
        assert_eq!(t.rack_of_node(0), 0);
        assert_eq!(t.rack_of_node(1), 0);
        assert_eq!(t.rack_of_node(2), 1);
        assert_eq!(t.rack_of_node(3), 1);
        assert_eq!(t.rack_proc_range(0), (0, 4));
        assert_eq!(t.rack_proc_range(1), (4, 8));
    }

    #[test]
    fn cost_classes_by_distance() {
        let t = TopologySpec::new(8, 4, 2, 1, 100, 400);
        let a = aff(&[0]); // P0 lives on node 0, rack 0
        let us = |p: usize| t.cost(&a, ProcessorId::new(p)).as_micros();
        assert_eq!(us(0), 0, "affine processor is free");
        assert_eq!(us(1), 1, "same node pays intra-node");
        assert_eq!(us(2), 100, "same rack, other node pays inter-node");
        assert_eq!(us(4), 400, "other rack pays inter-rack");
        assert_eq!(us(7), 400);
    }

    #[test]
    fn empty_affinity_pays_worst_class_everywhere() {
        let sharded = TopologySpec::new(8, 4, 2, 0, 100, 400);
        let single_rack = TopologySpec::new(8, 4, 1, 0, 100, 100);
        let flat = TopologySpec::new(8, 1, 1, 50, 50, 50);
        let none = AffinitySet::new();
        for p in 0..8usize {
            assert_eq!(sharded.cost(&none, ProcessorId::new(p)).as_micros(), 400);
            assert_eq!(
                single_rack.cost(&none, ProcessorId::new(p)).as_micros(),
                100
            );
            assert_eq!(flat.cost(&none, ProcessorId::new(p)).as_micros(), 50);
        }
    }

    #[test]
    fn flat_matches_constant_model_pointwise() {
        use crate::ids::TaskId;
        use crate::task::Task;
        use paragon_des::Time;

        let c = Duration::from_micros(2_000);
        let topo = TopologySpec::flat(8, c);
        let constant = crate::task::CommModel::constant(c);
        let affinities = [
            AffinitySet::new(),
            aff(&[3]),
            aff(&[0, 7]),
            AffinitySet::all(8),
        ];
        for a in &affinities {
            let task = Task::builder(TaskId::new(1))
                .processing_time(Duration::from_micros(10))
                .deadline(Time::from_millis(1))
                .affinity(a.clone())
                .build();
            for p in ProcessorId::all(8) {
                assert_eq!(
                    topo.cost(a, p),
                    constant.cost(&task, p),
                    "flat topology diverges from Constant at {p} with affinity {a}"
                );
            }
        }
    }

    #[test]
    fn min_node_cost_lower_bounds_every_member() {
        let t = TopologySpec::new(10, 3, 2, 1, 100, 400);
        let affinities = [AffinitySet::new(), aff(&[0]), aff(&[5, 9]), aff(&[2, 7])];
        for a in &affinities {
            for n in 0..t.nodes() {
                let bound = t.min_node_cost(a, n);
                let (lo, hi) = t.node_range(n);
                let best = (lo..hi)
                    .map(|p| t.cost(a, ProcessorId::new(p)))
                    .min()
                    .unwrap();
                assert_eq!(
                    bound, best,
                    "node {n} bound {bound} != best member cost {best} for {a}"
                );
            }
        }
    }

    #[test]
    fn non_affine_cost_is_every_non_affine_members_cost() {
        // 130 workers on 6 nodes (sizes 22 and 21, node edges off word
        // edges) across 2 racks; affinities include bits at and above the
        // worker count, which no processor can use. The reference is the
        // cost model's definition read off member by member: the cheapest
        // class whose span holds an affine processor.
        let t = TopologySpec::new(130, 6, 2, 1, 100, 400);
        let affinities = [
            AffinitySet::new(),
            aff(&[0]),
            aff(&[21, 64]),
            aff(&[129]),
            aff(&[130, 200]),
            aff(&[5, 70, 140]),
        ];
        let spans = |a: &AffinitySet, (lo, hi): (usize, usize)| {
            (lo..hi).any(|q| a.contains(ProcessorId::new(q)))
        };
        for a in &affinities {
            for n in 0..t.nodes() {
                let (lo, hi) = t.node_range(n);
                let reference = if a.is_empty() {
                    t.worst_class()
                } else if spans(a, (lo, hi)) {
                    t.intra_node_cost()
                } else if spans(a, t.rack_proc_range(t.rack_of_node(n))) {
                    t.inter_node_cost()
                } else {
                    t.inter_rack_cost()
                };
                assert_eq!(t.non_affine_cost(a, n), reference, "node {n}, {a}");
                for p in (lo..hi).map(ProcessorId::new).filter(|&p| !a.contains(p)) {
                    assert_eq!(t.cost(a, p), reference, "node {n}, {p}, {a}");
                }
            }
        }
    }

    #[test]
    fn fanout_defaults_and_overrides() {
        let t = TopologySpec::new(8, 4, 2, 0, 100, 400);
        assert_eq!(t.fanout(), TopologySpec::DEFAULT_FANOUT as usize);
        assert_eq!(t.with_fanout(3).fanout(), 3);
    }

    #[test]
    fn serde_round_trip() {
        let t = TopologySpec::new(1024, 16, 4, 0, 2_000, 4_000).with_fanout(3);
        let json = serde_json::to_string(&t).unwrap();
        let back: TopologySpec = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    #[should_panic(expected = "1 <= racks")]
    fn more_nodes_than_workers_rejected() {
        let _ = TopologySpec::new(4, 8, 1, 0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_costs_rejected() {
        let _ = TopologySpec::new(8, 2, 1, 100, 50, 50);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_topology_processor_panics() {
        let t = TopologySpec::new(4, 2, 1, 0, 1, 1);
        let _ = t.node_of(ProcessorId::new(4));
    }
}
