//! Directed, integer-weighted graphs and weighted shortest paths.
//!
//! The *VRF graph* of paper §4 is directed and weighted: each physical
//! router is expanded into K virtual routers (VRFs), and virtual links get
//! costs (realized as BGP AS-path prepending) between 1 and K, with
//! different costs in the two directions of one physical cable. Plain
//! shortest-path routing on this graph yields the Shortest-Union(K) path
//! set. This module provides the graph type, Dijkstra, and the weighted
//! shortest-path DAG whose per-node next-hop sets BGP multipath (ECMP over
//! equal AS-path lengths) would install.
//!
//! Two shortest-path engines coexist. [`DiGraph::dijkstra_to`] is the
//! binary-heap reference. [`DiGraph::bucket_dijkstra_to`] is a Dial
//! bucket-queue specialised to the small integer arc costs the VRF
//! construction produces (every cost is in `1..=K`, so a ring of `K + 1`
//! buckets, rounded up to a power of two, replaces the heap); it returns
//! the same distance labels — shortest-path distances are unique, so the
//! engines agree exactly, which the tests and proptests pin. The per-node
//! next-hop sets are a pure function of the labels: the nested
//! [`WeightedSpDag`] materializes them (one `Vec` per node, the readable
//! reference), while [`DiGraph::next_hops`] derives a node's set on demand
//! by filtering its out-arcs against the labels, the way a BGP multipath
//! RIB keeps one path cost per prefix and no next-hop table.
//!
//! Each adjacency entry carries its arc's cost (forward entries are
//! `(head, arc, cost)`, reverse ones `(tail, cost)`), so the shortest-path
//! sweeps and the next-hop filter read costs from the slice they already
//! walk instead of looking each arc up in the arc table.
//!
//! Distance labels are `u32` with [`UNREACHABLE`] as the sentinel in both
//! engines; relaxations add in `u64`, and [`DiGraph::from_arcs`] rejects a
//! graph whose path costs could overflow a label.

use crate::{NodeId, UNREACHABLE};
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of a directed arc inside a [`DiGraph`].
pub type ArcId = u32;

/// Incremental builder for [`DiGraph`].
#[derive(Debug, Clone, Default)]
pub struct DiGraphBuilder {
    num_nodes: u32,
    arcs: Vec<(NodeId, NodeId, u32)>,
}

impl DiGraphBuilder {
    /// Creates a builder over `num_nodes` nodes with no arcs.
    pub fn new(num_nodes: u32) -> Self {
        DiGraphBuilder {
            num_nodes,
            arcs: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Adds a directed arc `u -> v` with cost `w ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, self arcs, or zero weight (zero
    /// weights would let the "shortest" path loop).
    pub fn add_arc(&mut self, u: NodeId, v: NodeId, w: u32) -> ArcId {
        assert!(
            u < self.num_nodes && v < self.num_nodes,
            "arc ({u},{v}) out of range"
        );
        assert_ne!(u, v, "self arc at {u}");
        assert!(w >= 1, "zero-weight arc {u}->{v}");
        let id = self.arcs.len() as ArcId;
        self.arcs.push((u, v, w));
        id
    }

    /// Freezes into an immutable [`DiGraph`].
    pub fn build(self) -> DiGraph {
        DiGraph::from_arcs(self.num_nodes, self.arcs)
    }
}

/// An immutable directed multigraph with positive integer arc costs,
/// stored in CSR form for both the forward and the reverse direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    num_nodes: u32,
    arcs: Vec<(NodeId, NodeId, u32)>,
    fwd_off: Vec<u32>,
    /// `(head, arc id, cost)` triples in forward CSR order.
    fwd: Vec<(NodeId, ArcId, u32)>,
    rev_off: Vec<u32>,
    /// `(tail, cost)` pairs in reverse CSR order. The reverse walks (the
    /// distance sweeps towards a destination) never need the arc id.
    rev: Vec<(NodeId, u32)>,
}

impl DiGraph {
    /// Builds from an explicit arc list (see [`DiGraphBuilder::add_arc`] for
    /// the validity rules, which are asserted here too).
    ///
    /// # Panics
    ///
    /// Also panics when a simple path could cost [`UNREACHABLE`] or more
    /// (`(n − 1) · max cost`), since distance labels are `u32`.
    pub fn from_arcs(num_nodes: u32, arcs: Vec<(NodeId, NodeId, u32)>) -> DiGraph {
        let n = num_nodes as usize;
        let mut out_deg = vec![0u32; n];
        let mut in_deg = vec![0u32; n];
        let mut max_w = 1u32;
        for &(u, v, w) in &arcs {
            assert!(u < num_nodes && v < num_nodes && u != v && w >= 1);
            out_deg[u as usize] += 1;
            in_deg[v as usize] += 1;
            max_w = max_w.max(w);
        }
        assert!(
            (num_nodes.saturating_sub(1) as u64) * (max_w as u64) < UNREACHABLE as u64,
            "path costs overflow u32 distance labels"
        );
        let prefix = |deg: &[u32]| {
            let mut off = Vec::with_capacity(deg.len() + 1);
            let mut acc = 0u32;
            off.push(0);
            for &d in deg {
                acc += d;
                off.push(acc);
            }
            off
        };
        let fwd_off = prefix(&out_deg);
        let rev_off = prefix(&in_deg);
        let mut fcur: Vec<u32> = fwd_off[..n].to_vec();
        let mut rcur: Vec<u32> = rev_off[..n].to_vec();
        let mut fwd = vec![(0u32, 0u32, 0u32); arcs.len()];
        let mut rev = vec![(0u32, 0u32); arcs.len()];
        for (i, &(u, v, w)) in arcs.iter().enumerate() {
            fwd[fcur[u as usize] as usize] = (v, i as ArcId, w);
            fcur[u as usize] += 1;
            rev[rcur[v as usize] as usize] = (u, w);
            rcur[v as usize] += 1;
        }
        DiGraph {
            num_nodes,
            arcs,
            fwd_off,
            fwd,
            rev_off,
            rev,
        }
    }

    /// The same graph with the arcs `dead` marks left out of its
    /// adjacency: the arc list, and so every arc id, stays as it is, but
    /// no walk, shortest-path sweep or next-hop filter sees a dead arc.
    /// The survivors keep their arc-id order in both CSR directions. This
    /// is how a failure degrades a plane without renumbering it.
    pub fn masked(&self, dead: impl Fn(ArcId) -> bool) -> DiGraph {
        let live: Vec<ArcId> = (0..self.num_arcs()).filter(|&a| !dead(a)).collect();
        let mut g = DiGraph::from_arcs(self.num_nodes, live.iter().map(|&a| self.arc(a)).collect());
        // The survivors were numbered densely in order; give the forward
        // entries their ids back, and the graph its whole arc list.
        for entry in &mut g.fwd {
            entry.1 = live[entry.1 as usize];
        }
        g.arcs = self.arcs.clone();
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of arcs.
    #[inline]
    pub fn num_arcs(&self) -> u32 {
        self.arcs.len() as u32
    }

    /// The `(tail, head, cost)` triple of arc `a`.
    #[inline]
    pub fn arc(&self, a: ArcId) -> (NodeId, NodeId, u32) {
        self.arcs[a as usize]
    }

    /// Out-neighbors of `u` as `(head, arc, cost)` triples, in arc-id
    /// order.
    #[inline]
    pub fn out_arcs(&self, u: NodeId) -> &[(NodeId, ArcId, u32)] {
        &self.fwd[self.fwd_off[u as usize] as usize..self.fwd_off[u as usize + 1] as usize]
    }

    /// In-neighbors of `v` as `(tail, cost)` pairs, in arc-id order.
    #[inline]
    pub fn in_arcs(&self, v: NodeId) -> &[(NodeId, u32)] {
        &self.rev[self.rev_off[v as usize] as usize..self.rev_off[v as usize + 1] as usize]
    }

    /// Dijkstra distances *from* `src` along arc directions.
    /// Unreachable nodes get [`UNREACHABLE`].
    pub fn dijkstra_from(&self, src: NodeId) -> Vec<u32> {
        let forward = |&(v, _, w): &(NodeId, ArcId, u32)| (v, w);
        dijkstra(self.num_nodes, src, &self.fwd_off, &self.fwd, forward)
    }

    /// Dijkstra distances *to* `dst` (i.e. along reversed arcs).
    pub fn dijkstra_to(&self, dst: NodeId) -> Vec<u32> {
        dijkstra(self.num_nodes, dst, &self.rev_off, &self.rev, |&e| e)
    }

    /// Largest arc cost in the graph (1 for an arcless graph).
    pub fn max_arc_cost(&self) -> u32 {
        self.arcs.iter().map(|&(_, _, w)| w).max().unwrap_or(1)
    }

    /// Bucket-queue (Dial) distances *to* `dst`, identical to
    /// [`DiGraph::dijkstra_to`]. `scratch` carries the bucket ring across
    /// calls so an all-destinations sweep allocates it once.
    pub fn bucket_dijkstra_to(&self, dst: NodeId, scratch: &mut DialScratch) -> Vec<u32> {
        let (off, adj) = (&self.rev_off, &self.rev);
        bucket_dijkstra(self.num_nodes, dst, off, adj, |&e| e, scratch)
    }

    /// Bucket-queue (Dial) distances *from* `src` along arc directions.
    pub fn bucket_dijkstra_from(&self, src: NodeId, scratch: &mut DialScratch) -> Vec<u32> {
        let (off, adj) = (&self.fwd_off, &self.fwd);
        let forward = |&(v, _, w): &(NodeId, ArcId, u32)| (v, w);
        bucket_dijkstra(self.num_nodes, src, off, adj, forward, scratch)
    }

    /// Next hops of `u` towards the destination whose distance labels
    /// (from [`DiGraph::dijkstra_to`] or [`DiGraph::bucket_dijkstra_to`])
    /// are `dist`: the out-arcs `(head, arc)` that begin a minimum-cost
    /// path, i.e. `dist[head] + cost == dist[u]`, in out-arc order. The
    /// destination (label 0) and unreachable nodes have none. This is the
    /// inclusion rule [`WeightedSpDag::towards`] materializes.
    #[inline]
    pub fn next_hops<'a>(
        &'a self,
        dist: &'a [u32],
        u: NodeId,
    ) -> impl Iterator<Item = (NodeId, ArcId)> + Clone + 'a {
        let du = dist[u as usize];
        let out = if du == 0 || du == UNREACHABLE {
            &[][..]
        } else {
            self.out_arcs(u)
        };
        // `du` is a real label, so a match has `dist[head] < du`: an
        // unreachable head never matches.
        out.iter()
            .filter(move |&&(v, _, w)| dist[v as usize] as u64 + w as u64 == du as u64)
            .map(|&(v, a, _)| (v, a))
    }

    /// The `pick(n)`-th of the `n` [`DiGraph::next_hops`] of `u` under
    /// `dist`, or `None` when `u` has none. `pick` runs only when `n > 0`
    /// and must return an index below `n`, so a caller drawing from an RNG
    /// draws once per hop taken, as with a materialized next-hop list.
    #[inline]
    pub fn pick_next_hop(
        &self,
        dist: &[u32],
        u: NodeId,
        pick: impl FnOnce(usize) -> usize,
    ) -> Option<(NodeId, ArcId)> {
        let mut hops = self.next_hops(dist, u);
        let n = hops.clone().count();
        if n == 0 {
            return None;
        }
        hops.nth(pick(n))
    }
}

/// Heap Dijkstra from `root` over one CSR direction (`off`, `adj`), where
/// `hop` reads an entry's `(neighbor, cost)`.
fn dijkstra<E>(
    num_nodes: u32,
    root: NodeId,
    off: &[u32],
    adj: &[E],
    hop: impl Fn(&E) -> (NodeId, u32),
) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; num_nodes as usize];
    let mut heap = BinaryHeap::new();
    dist[root as usize] = 0;
    heap.push(Reverse((0u32, root)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for e in &adj[off[u as usize] as usize..off[u as usize + 1] as usize] {
            let (v, w) = hop(e);
            let nd = d as u64 + w as u64;
            // Below a stored label, so below UNREACHABLE: fits u32.
            if nd < dist[v as usize] as u64 {
                dist[v as usize] = nd as u32;
                heap.push(Reverse((nd as u32, v)));
            }
        }
    }
    dist
}

/// Dial's algorithm over one CSR direction: tentative labels live in a
/// ring of buckets scanned in increasing label order. Any two labels
/// simultaneously pending differ by at most `C` (the max arc cost), so a
/// ring of at least `C + 1` slots never aliases distinct live labels;
/// superseded labels are skipped by the `dist` check on pop. The ring is
/// `C + 1` rounded up to a power of two, so a label's slot is `label &
/// mask` rather than a 64-bit `%` on every relaxation. Each slot still
/// holds one label's entries at a time, pushed and popped in the same
/// order as in a `C + 1` ring. The distance array it produces is the
/// unique shortest-path labelling, so it matches the heap engine exactly
/// (not just approximately).
fn bucket_dijkstra<E>(
    num_nodes: u32,
    root: NodeId,
    off: &[u32],
    adj: &[E],
    hop: impl Fn(&E) -> (NodeId, u32),
    scratch: &mut DialScratch,
) -> Vec<u32> {
    let c = scratch.max_cost;
    if c > DialScratch::MAX_BUCKET_COST {
        // Weights too coarse for a dense ring: the heap is the right
        // engine, and the results are identical by definition.
        return dijkstra(num_nodes, root, off, adj, hop);
    }
    let nb = (c as usize + 1).next_power_of_two();
    let mask = nb as u64 - 1;
    scratch.buckets.resize_with(nb, Vec::new);
    for b in &mut scratch.buckets {
        b.clear();
    }
    let mut dist = vec![UNREACHABLE; num_nodes as usize];
    dist[root as usize] = 0;
    scratch.buckets[0].push(root);
    let mut pending = 1usize;
    let mut d = 0u64;
    while pending > 0 {
        let bi = (d & mask) as usize;
        // Arc costs are >= 1, so relaxations from label `d` never land
        // back in bucket `bi`; draining it to empty is safe.
        while let Some(u) = scratch.buckets[bi].pop() {
            pending -= 1;
            if dist[u as usize] as u64 != d {
                continue; // superseded by a smaller label
            }
            for e in &adj[off[u as usize] as usize..off[u as usize + 1] as usize] {
                let (v, w) = hop(e);
                debug_assert!(w <= c, "scratch sized for a cheaper graph");
                let nd = d + w as u64;
                if nd < dist[v as usize] as u64 {
                    dist[v as usize] = nd as u32;
                    scratch.buckets[(nd & mask) as usize].push(v);
                    pending += 1;
                }
            }
        }
        d += 1;
    }
    dist
}

/// Reusable state for [`DiGraph::bucket_dijkstra_to`]: the bucket ring,
/// sized once per graph from its maximum arc cost. One scratch serves any
/// number of sequential runs on graphs whose costs stay within that bound
/// (per-worker scratches in the parallel forwarding-state build).
#[derive(Debug, Clone)]
pub struct DialScratch {
    max_cost: u32,
    buckets: Vec<Vec<NodeId>>,
}

impl DialScratch {
    /// Costs above this fall back to the binary heap — a dense bucket ring
    /// would waste more on empty-slot scans than the heap's `log n`.
    pub const MAX_BUCKET_COST: u32 = 256;

    /// Scratch sized for `g`'s cost range.
    pub fn for_graph(g: &DiGraph) -> DialScratch {
        DialScratch {
            max_cost: g.max_arc_cost(),
            buckets: Vec::new(),
        }
    }

    /// The arc-cost bound this scratch was sized for.
    pub fn max_cost(&self) -> u32 {
        self.max_cost
    }
}

/// Weighted shortest-path DAG towards a destination in a [`DiGraph`]:
/// at each node, the arcs that begin *some* minimum-cost path to `dst`.
///
/// This is the forwarding state a BGP-multipath router would install when
/// arc costs are realized as AS-path lengths: all next hops whose advertised
/// cost plus the link cost equals the node's own best cost.
#[derive(Debug, Clone)]
pub struct WeightedSpDag {
    /// Destination node.
    pub dst: NodeId,
    /// `dist[u]` = min cost from `u` to `dst` ([`UNREACHABLE`] if none).
    pub dist: Vec<u32>,
    /// `next_hops[u]` = (head, arc) pairs on minimum-cost paths.
    pub next_hops: Vec<Vec<(NodeId, ArcId)>>,
}

impl WeightedSpDag {
    /// Builds the minimum-cost DAG towards `dst`.
    pub fn towards(g: &DiGraph, dst: NodeId) -> WeightedSpDag {
        let dist = g.dijkstra_to(dst);
        let mut next_hops = vec![Vec::new(); g.num_nodes() as usize];
        for u in 0..g.num_nodes() {
            let du = dist[u as usize];
            if du == UNREACHABLE || du == 0 {
                continue;
            }
            for &(v, a, w) in g.out_arcs(u) {
                let dv = dist[v as usize];
                if dv != UNREACHABLE && dv as u64 + w as u64 == du as u64 {
                    next_hops[u as usize].push((v, a));
                }
            }
        }
        WeightedSpDag {
            dst,
            dist,
            next_hops,
        }
    }

    /// Samples a minimum-cost path from `src` by a uniform random walk over
    /// next-hop arcs (per-hop ECMP). `None` if unreachable.
    pub fn sample_path<R: Rng>(&self, src: NodeId, rng: &mut R) -> Option<Vec<NodeId>> {
        if self.dist[src as usize] == UNREACHABLE {
            return None;
        }
        let mut path = vec![src];
        let mut u = src;
        while u != self.dst {
            let nh = &self.next_hops[u as usize];
            debug_assert!(!nh.is_empty());
            let (v, _) = nh[rng.gen_range(0..nh.len())];
            path.push(v);
            u = v;
        }
        Some(path)
    }

    /// Enumerates all minimum-cost paths from `src`, up to `cap`.
    pub fn all_paths(&self, src: NodeId, cap: usize) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        if self.dist[src as usize] == UNREACHABLE {
            return out;
        }
        let mut stack = vec![src];
        self.dfs(&mut stack, &mut out, cap);
        out
    }

    fn dfs(&self, stack: &mut Vec<NodeId>, out: &mut Vec<Vec<NodeId>>, cap: usize) {
        if out.len() >= cap {
            return;
        }
        let u = *stack.last().expect("non-empty");
        if u == self.dst {
            out.push(stack.clone());
            return;
        }
        for &(v, _) in &self.next_hops[u as usize] {
            stack.push(v);
            self.dfs(stack, out, cap);
            stack.pop();
            if out.len() >= cap {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Diamond: 0 -> 1 -> 3 (cost 1+1), 0 -> 2 -> 3 (cost 1+1),
    /// 0 -> 3 direct cost 2. All three are min-cost (2).
    fn diamond() -> DiGraph {
        let mut b = DiGraphBuilder::new(4);
        b.add_arc(0, 1, 1);
        b.add_arc(1, 3, 1);
        b.add_arc(0, 2, 1);
        b.add_arc(2, 3, 1);
        b.add_arc(0, 3, 2);
        b.build()
    }

    #[test]
    fn dijkstra_forward_and_backward() {
        let g = diamond();
        assert_eq!(g.dijkstra_from(0), vec![0, 1, 1, 2]);
        assert_eq!(g.dijkstra_to(3), vec![2, 1, 1, 0]);
        // Arcs are one-way: nothing reaches 0.
        let to0 = g.dijkstra_to(0);
        assert_eq!(to0[0], 0);
        assert_eq!(to0[3], UNREACHABLE);
    }

    #[test]
    fn weighted_dag_collects_all_min_cost_arcs() {
        let g = diamond();
        let dag = WeightedSpDag::towards(&g, 3);
        // From 0, three equal-cost first hops: 1, 2 and 3 (direct cost 2).
        let mut heads: Vec<NodeId> = dag.next_hops[0].iter().map(|&(v, _)| v).collect();
        heads.sort_unstable();
        assert_eq!(heads, vec![1, 2, 3]);
        assert_eq!(dag.dist[0], 2);
    }

    #[test]
    fn all_paths_enumeration() {
        let g = diamond();
        let dag = WeightedSpDag::towards(&g, 3);
        let ps = dag.all_paths(0, 100);
        assert_eq!(ps.len(), 3);
        assert!(ps.contains(&vec![0, 1, 3]));
        assert!(ps.contains(&vec![0, 2, 3]));
        assert!(ps.contains(&vec![0, 3]));
    }

    #[test]
    fn path_sampling_stays_min_cost() {
        let g = diamond();
        let dag = WeightedSpDag::towards(&g, 3);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..32 {
            let p = dag.sample_path(0, &mut rng).unwrap();
            // Total cost must be 2 whichever path is drawn.
            let mut cost = 0;
            for w in p.windows(2) {
                let arc_cost = (0..g.num_arcs())
                    .map(|a| g.arc(a))
                    .filter(|&(u, v, _)| u == w[0] && v == w[1])
                    .map(|(_, _, c)| c)
                    .min()
                    .unwrap();
                cost += arc_cost;
            }
            assert_eq!(cost, 2);
        }
    }

    #[test]
    fn unreachable_sampling() {
        let mut b = DiGraphBuilder::new(2);
        b.add_arc(0, 1, 1);
        let g = b.build();
        let dag = WeightedSpDag::towards(&g, 0);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(dag.sample_path(1, &mut rng).is_none());
        assert!(dag.all_paths(1, 10).is_empty());
    }

    #[test]
    fn parallel_arcs_with_different_costs() {
        let mut b = DiGraphBuilder::new(2);
        b.add_arc(0, 1, 3);
        b.add_arc(0, 1, 1);
        let g = b.build();
        assert_eq!(g.dijkstra_from(0)[1], 1);
        let dag = WeightedSpDag::towards(&g, 1);
        // Only the cost-1 arc is a min-cost next hop.
        assert_eq!(dag.next_hops[0].len(), 1);
        assert_eq!(g.arc(dag.next_hops[0][0].1).2, 1);
    }

    #[test]
    #[should_panic(expected = "zero-weight")]
    fn rejects_zero_weight() {
        let mut b = DiGraphBuilder::new(2);
        b.add_arc(0, 1, 0);
    }

    /// Random digraph: spanning arborescence plus extra arcs, costs in
    /// `1..=max_w`.
    fn random_digraph(seed: u64, n: u32, max_w: u32) -> DiGraph {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = DiGraphBuilder::new(n);
        for i in 1..n {
            let p = rng.gen_range(0..i);
            b.add_arc(p, i, rng.gen_range(1..=max_w));
            b.add_arc(i, p, rng.gen_range(1..=max_w));
        }
        for _ in 0..(2 * n) {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                b.add_arc(u, v, rng.gen_range(1..=max_w));
            }
        }
        b.build()
    }

    /// Max arc costs 1..=9 size the masked ring at 2, 4, 8 and 16 slots.
    const MAX_COSTS: std::ops::RangeInclusive<u32> = 1..=9;

    #[test]
    fn bucket_queue_matches_heap_dijkstra() {
        let mut rings = Vec::new();
        for max_w in MAX_COSTS {
            for seed in 0..8u64 {
                let g = random_digraph(seed, 24, max_w);
                let mut scratch = DialScratch::for_graph(&g);
                for root in [0u32, 5, 23] {
                    assert_eq!(
                        g.bucket_dijkstra_to(root, &mut scratch),
                        g.dijkstra_to(root),
                        "max cost {max_w} seed {seed} root {root}"
                    );
                    assert_eq!(
                        g.bucket_dijkstra_from(root, &mut scratch),
                        g.dijkstra_from(root),
                        "max cost {max_w} seed {seed} root {root}"
                    );
                }
                let ring = scratch.buckets.len();
                assert_eq!(ring, (g.max_arc_cost() as usize + 1).next_power_of_two());
                rings.push(ring);
            }
        }
        rings.dedup();
        assert_eq!(rings, vec![2, 4, 8, 16]);
    }

    #[test]
    fn bucket_queue_falls_back_on_coarse_weights() {
        let mut b = DiGraphBuilder::new(3);
        b.add_arc(0, 1, 1000);
        b.add_arc(1, 2, 7);
        let g = b.build();
        assert_eq!(g.max_arc_cost(), 1000);
        let mut scratch = DialScratch::for_graph(&g);
        assert!(scratch.max_cost() > DialScratch::MAX_BUCKET_COST);
        assert_eq!(g.bucket_dijkstra_from(0, &mut scratch), g.dijkstra_from(0));
    }

    /// A seeded walk over label-derived next hops: at each node, count the
    /// matches and take the `gen_range`-th, as route sampling does.
    fn label_walk(
        g: &DiGraph,
        dist: &[u32],
        dst: NodeId,
        src: NodeId,
        rng: &mut SmallRng,
    ) -> Option<Vec<NodeId>> {
        if dist[src as usize] == UNREACHABLE {
            return None;
        }
        let mut path = vec![src];
        let mut u = src;
        while u != dst {
            u = g.pick_next_hop(dist, u, |n| rng.gen_range(0..n))?.0;
            path.push(u);
        }
        Some(path)
    }

    #[test]
    fn derived_next_hops_match_nested_dag() {
        use rand::Rng;
        for (max_w, seed) in MAX_COSTS.flat_map(|w| (0..8u64).map(move |s| (w, s))) {
            let full = random_digraph(seed, 20, max_w);
            let masked = full.masked(|a| a % 3 == 0);
            for (g, form) in [(&full, "unmasked"), (&masked, "masked")] {
                let mut scratch = DialScratch::for_graph(g);
                for dst in 0..g.num_nodes() {
                    let ctx = format!("max cost {max_w} seed {seed} {form} dst {dst}");
                    let nested = WeightedSpDag::towards(g, dst);
                    let dist = g.bucket_dijkstra_to(dst, &mut scratch);
                    assert_eq!(dist, nested.dist, "{ctx}");
                    for u in 0..g.num_nodes() {
                        let derived: Vec<_> = g.next_hops(&dist, u).collect();
                        assert_eq!(derived, nested.next_hops[u as usize], "{ctx} u {u}");
                        let picked = g.pick_next_hop(&dist, u, |n| n - 1);
                        assert_eq!(picked, derived.last().copied(), "{ctx} u {u}");
                    }
                    // Same seed, same next-hop order: identical walks and
                    // the two streams stay in lockstep.
                    let mut ra = SmallRng::seed_from_u64(seed ^ dst as u64);
                    let mut rb = ra.clone();
                    for src in 0..g.num_nodes() {
                        assert_eq!(
                            label_walk(g, &dist, dst, src, &mut ra),
                            nested.sample_path(src, &mut rb),
                            "{ctx} src {src}"
                        );
                    }
                    assert_eq!(ra.gen::<u64>(), rb.gen::<u64>(), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn masked_graph_keeps_arc_ids() {
        // Killing the 0 -> 1 arc leaves 0 -> 2 -> 3 and 0 -> 3 as the
        // min-cost paths, still named by their original arc ids.
        let g = diamond();
        let m = g.masked(|a| a == 0);
        assert_eq!(m.num_arcs(), g.num_arcs());
        assert_eq!(m.arc(4), g.arc(4));
        assert_eq!(m.out_arcs(0), &[(2, 2, 1), (3, 4, 2)]);
        assert!(m.in_arcs(1).is_empty());
        assert_eq!(m.in_arcs(3), g.in_arcs(3));
        let dist = m.dijkstra_to(3);
        assert_eq!(m.next_hops(&dist, 0).collect::<Vec<_>>(), [(2, 2), (3, 4)]);
        assert_eq!(dist[1], 1);
        // Masking nothing is the graph itself.
        assert_eq!(g.masked(|_| false), g);
        // The masked graph equals a renumbered rebuild of the survivors
        // under the dense -> original arc map.
        let dense = DiGraph::from_arcs(4, vec![(1, 3, 1), (0, 2, 1), (2, 3, 1), (0, 3, 2)]);
        let orig = [1, 2, 3, 4];
        for u in 0..4 {
            let mapped: Vec<_> = dense
                .out_arcs(u)
                .iter()
                .map(|&(v, a, w)| (v, orig[a as usize], w))
                .collect();
            assert_eq!(m.out_arcs(u), &mapped[..]);
            assert_eq!(m.in_arcs(u), dense.in_arcs(u));
        }
    }

    #[test]
    #[should_panic(expected = "overflow u32 distance labels")]
    fn rejects_costs_that_overflow_labels() {
        DiGraph::from_arcs(3, vec![(0, 1, u32::MAX / 2), (1, 2, u32::MAX / 2 + 1)]);
    }

    #[test]
    fn csr_adjacency_is_consistent() {
        let g = diamond();
        assert_eq!(g.out_arcs(0).len(), 3);
        assert_eq!(g.in_arcs(3).len(), 3);
        assert_eq!(g.out_arcs(3).len(), 0);
        for a in 0..g.num_arcs() {
            let (u, v, w) = g.arc(a);
            assert!(g.out_arcs(u).contains(&(v, a, w)));
            assert!(g.in_arcs(v).contains(&(u, w)));
        }
        // Both directions list a node's arcs in arc-id order.
        assert_eq!(g.out_arcs(0), &[(1, 0, 1), (2, 2, 1), (3, 4, 2)]);
        assert_eq!(g.in_arcs(3), &[(1, 1), (2, 1), (0, 2)]);
    }
}
