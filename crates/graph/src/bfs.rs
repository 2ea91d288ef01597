//! Breadth-first shortest-path machinery on unweighted graphs.
//!
//! All routing in the paper starts from hop-count shortest paths: ECMP uses
//! all shortest paths, and Shortest-Union(K) is their union with bounded
//! non-shortest paths. This module provides distances, shortest-path DAGs
//! (the per-node next-hop sets ECMP forwards over) and shortest-path
//! counting (§4 argues the count is too small between nearby racks in a flat
//! topology — we measure exactly that).

use crate::{EdgeId, Graph, NodeId, UNREACHABLE};
use std::collections::VecDeque;

/// Hop distances from `src` to every node (`UNREACHABLE` where disconnected).
pub fn distances(g: &Graph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.num_nodes() as usize];
    let mut q = VecDeque::new();
    bfs_into(g, src, &mut dist, &mut q);
    dist
}

/// BFS from `src` into caller-provided storage: `dist` (length
/// `num_nodes`, overwritten) and a queue, both reused across calls so a
/// many-source sweep performs no per-source allocation.
///
/// # Panics
///
/// Panics if `dist.len() != g.num_nodes()`.
pub fn distances_into(g: &Graph, src: NodeId, dist: &mut [u32], queue: &mut VecDeque<NodeId>) {
    bfs_into(g, src, dist, queue);
}

fn bfs_into(g: &Graph, src: NodeId, dist: &mut [u32], q: &mut VecDeque<NodeId>) {
    assert_eq!(dist.len(), g.num_nodes() as usize, "dist buffer mis-sized");
    dist.fill(UNREACHABLE);
    q.clear();
    dist[src as usize] = 0;
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u as usize];
        for &(v, _) in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                q.push_back(v);
            }
        }
    }
}

/// All-pairs hop distances in one flat row-major allocation; row `v` =
/// distances from node `v`. Indexing by `usize` yields a row, so
/// `m[s as usize][t as usize]` reads the `(s, t)` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: u32,
    dist: Vec<u32>,
}

impl DistanceMatrix {
    /// Number of nodes (rows).
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.n
    }

    /// Distances from node `v`, as a row slice.
    #[inline]
    pub fn row(&self, v: NodeId) -> &[u32] {
        let n = self.n as usize;
        &self.dist[v as usize * n..(v as usize + 1) * n]
    }

    /// The `(u, v)` hop distance.
    #[inline]
    pub fn at(&self, u: NodeId, v: NodeId) -> u32 {
        self.dist[u as usize * self.n as usize + v as usize]
    }

    /// Diameter read off the matrix (max finite pairwise distance).
    /// `None` if any pair is disconnected or the matrix is empty.
    pub fn diameter(&self) -> Option<u32> {
        if self.n == 0 {
            return None;
        }
        let mut best = 0;
        for &x in &self.dist {
            if x == UNREACHABLE {
                return None;
            }
            best = best.max(x);
        }
        Some(best)
    }

    /// Mean hop distance over ordered distinct pairs, read off the matrix.
    /// `None` if any pair is disconnected or there are fewer than two nodes.
    pub fn mean_distance(&self) -> Option<f64> {
        let n = self.n as u64;
        if n < 2 {
            return None;
        }
        let mut sum = 0u64;
        for &x in &self.dist {
            if x == UNREACHABLE {
                return None;
            }
            sum += x as u64;
        }
        Some(sum as f64 / (n * (n - 1)) as f64)
    }
}

impl std::ops::Index<usize> for DistanceMatrix {
    type Output = [u32];

    #[inline]
    fn index(&self, v: usize) -> &[u32] {
        self.row(v as NodeId)
    }
}

/// All-pairs hop distances, row `v` = distances from node `v`, stored
/// row-major in a single flat allocation (see [`DistanceMatrix`]).
///
/// Runs one BFS per node straight into its row: `O(V · (V + E))` time and
/// one `V²` allocation, fine for the ≤ few hundred switches of a
/// moderate-scale DC.
pub fn all_pairs_distances(g: &Graph) -> DistanceMatrix {
    let n = g.num_nodes();
    let mut dist = vec![UNREACHABLE; (n as usize) * (n as usize)];
    let mut q = VecDeque::new();
    for (v, row) in dist.chunks_exact_mut(n.max(1) as usize).enumerate() {
        bfs_into(g, v as NodeId, row, &mut q);
    }
    DistanceMatrix { n, dist }
}

/// Diameter and mean distance in one BFS sweep over a single reused
/// distance row — the flat [`DistanceMatrix`] scratch path without the
/// `V²` allocation. Equals `(diameter(g), mean_distance(g))` when both
/// are `Some`; `None` if disconnected or fewer than two nodes.
pub fn path_stats(g: &Graph) -> Option<(u32, f64)> {
    let n = g.num_nodes() as u64;
    if n < 2 {
        return None;
    }
    let mut best = 0u32;
    let mut sum = 0u64;
    let mut dist = vec![UNREACHABLE; g.num_nodes() as usize];
    let mut q = VecDeque::new();
    for v in 0..g.num_nodes() {
        bfs_into(g, v, &mut dist, &mut q);
        for &x in &dist {
            if x == UNREACHABLE {
                return None;
            }
            best = best.max(x);
            sum += x as u64;
        }
    }
    Some((best, sum as f64 / (n * (n - 1)) as f64))
}

/// Diameter (max finite pairwise distance). `None` if disconnected or empty.
pub fn diameter(g: &Graph) -> Option<u32> {
    if g.num_nodes() == 0 {
        return None;
    }
    let mut best = 0;
    let mut dist = vec![UNREACHABLE; g.num_nodes() as usize];
    let mut q = VecDeque::new();
    for v in 0..g.num_nodes() {
        bfs_into(g, v, &mut dist, &mut q);
        for &x in &dist {
            if x == UNREACHABLE {
                return None;
            }
            best = best.max(x);
        }
    }
    Some(best)
}

/// Mean hop distance over all ordered pairs of *distinct* nodes.
/// `None` if disconnected or fewer than two nodes.
pub fn mean_distance(g: &Graph) -> Option<f64> {
    let n = g.num_nodes() as u64;
    if n < 2 {
        return None;
    }
    let mut sum = 0u64;
    let mut dist = vec![UNREACHABLE; g.num_nodes() as usize];
    let mut q = VecDeque::new();
    for v in 0..g.num_nodes() {
        bfs_into(g, v, &mut dist, &mut q);
        for &x in &dist {
            if x == UNREACHABLE {
                return None;
            }
            sum += x as u64;
        }
    }
    Some(sum as f64 / (n * (n - 1)) as f64)
}

/// Per-destination ECMP forwarding state for one destination `t`:
/// at node `u`, the set of (neighbor, edge) pairs lying on *some* shortest
/// path from `u` to `t`.
#[derive(Debug, Clone)]
pub struct SpDag {
    /// The destination this DAG routes towards.
    pub dst: NodeId,
    /// `dist[u]` = hop distance from `u` to `dst`.
    pub dist: Vec<u32>,
    /// `next_hops[u]` = neighbors of `u` one hop closer to `dst`,
    /// with the edge used to reach each (parallel edges appear separately,
    /// giving them proportional ECMP weight, as real switches do with LAGs).
    pub next_hops: Vec<Vec<(NodeId, EdgeId)>>,
}

impl SpDag {
    /// Builds the shortest-path DAG towards `dst`.
    pub fn towards(g: &Graph, dst: NodeId) -> SpDag {
        let dist = distances(g, dst);
        let mut next_hops = vec![Vec::new(); g.num_nodes() as usize];
        for u in 0..g.num_nodes() {
            let du = dist[u as usize];
            if du == UNREACHABLE || du == 0 {
                continue;
            }
            for &(v, e) in g.neighbors(u) {
                if dist[v as usize] + 1 == du {
                    next_hops[u as usize].push((v, e));
                }
            }
        }
        SpDag {
            dst,
            dist,
            next_hops,
        }
    }

    /// Number of distinct shortest paths from `src` to the DAG's destination.
    ///
    /// Counts are saturating (`u64::MAX` on overflow), which cannot happen at
    /// DC scale but keeps the function total.
    pub fn count_paths(&self, src: NodeId) -> u64 {
        // Memoized DFS over the DAG; dist strictly decreases along next-hops
        // so plain recursion terminates. Iterate nodes by increasing dist.
        let n = self.dist.len();
        let mut order: Vec<NodeId> = (0..n as u32).collect();
        order.sort_by_key(|&v| self.dist[v as usize]);
        let mut count = vec![0u64; n];
        count[self.dst as usize] = 1;
        for v in order {
            if self.dist[v as usize] == 0 || self.dist[v as usize] == UNREACHABLE {
                continue;
            }
            let mut c = 0u64;
            for &(w, _) in &self.next_hops[v as usize] {
                c = c.saturating_add(count[w as usize]);
            }
            count[v as usize] = c;
        }
        count[src as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// 6-cycle: distances wrap both ways.
    fn cycle(n: u32) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i, (i + 1) % n);
        }
        b.build()
    }

    /// K4 complete graph.
    fn k4() -> Graph {
        let mut b = GraphBuilder::new(4);
        for a in 0..4 {
            for bb in (a + 1)..4 {
                b.add_edge(a, bb);
            }
        }
        b.build()
    }

    #[test]
    fn distances_on_cycle() {
        let g = cycle(6);
        assert_eq!(distances(&g, 0), vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn unreachable_is_marked() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        let g = b.build();
        let d = distances(&g, 0);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn diameter_and_mean() {
        let g = cycle(6);
        assert_eq!(diameter(&g), Some(3));
        // cycle(6): distances from any node sum to 1+2+3+2+1 = 9 over 5 pairs
        let m = mean_distance(&g).unwrap();
        assert!((m - 9.0 / 5.0).abs() < 1e-12);
        assert_eq!(diameter(&GraphBuilder::new(0).build()), None);
        let mut b = GraphBuilder::new(2);
        let disc = b.clone().build();
        assert_eq!(diameter(&disc), None);
        b.add_edge(0, 1);
        assert_eq!(diameter(&b.build()), Some(1));
    }

    #[test]
    fn path_stats_matches_separate_sweeps() {
        for g in [cycle(6), k4(), cycle(3)] {
            let (d, m) = path_stats(&g).unwrap();
            assert_eq!(Some(d), diameter(&g));
            assert_eq!(Some(m), mean_distance(&g));
            let matrix = all_pairs_distances(&g);
            assert_eq!(matrix.diameter(), Some(d));
            assert_eq!(matrix.mean_distance(), Some(m));
        }
        // Disconnected and degenerate cases report None everywhere.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        let disc = b.build();
        assert_eq!(path_stats(&disc), None);
        assert_eq!(all_pairs_distances(&disc).diameter(), None);
        assert_eq!(all_pairs_distances(&disc).mean_distance(), None);
        assert_eq!(path_stats(&GraphBuilder::new(1).build()), None);
        assert_eq!(path_stats(&GraphBuilder::new(0).build()), None);
    }

    #[test]
    fn all_pairs_matrix_matches_per_source_bfs() {
        let g = cycle(6);
        let m = all_pairs_distances(&g);
        assert_eq!(m.num_nodes(), 6);
        for v in 0..6u32 {
            let d = distances(&g, v);
            assert_eq!(m.row(v), &d[..]);
            assert_eq!(&m[v as usize], &d[..]);
            for t in 0..6u32 {
                assert_eq!(m.at(v, t), d[t as usize]);
            }
        }
        // Disconnected entries are marked, not dropped.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        let m = all_pairs_distances(&b.build());
        assert_eq!(m.at(0, 2), UNREACHABLE);
        assert_eq!(m.at(0, 1), 1);
    }

    #[test]
    fn distances_into_reuses_buffers() {
        let g = cycle(6);
        let mut buf = vec![0u32; 6];
        let mut q = VecDeque::new();
        distances_into(&g, 0, &mut buf, &mut q);
        assert_eq!(buf, vec![0, 1, 2, 3, 2, 1]);
        // Stale contents from a previous source must be overwritten.
        distances_into(&g, 3, &mut buf, &mut q);
        assert_eq!(buf, distances(&g, 3));
    }

    #[test]
    #[should_panic(expected = "mis-sized")]
    fn distances_into_rejects_wrong_buffer() {
        let g = cycle(4);
        let mut buf = vec![0u32; 3];
        distances_into(&g, 0, &mut buf, &mut VecDeque::new());
    }

    #[test]
    fn sp_dag_next_hops_on_cycle() {
        let g = cycle(4);
        let dag = SpDag::towards(&g, 0);
        // Node 2 is at distance 2 with two next-hops (1 and 3).
        assert_eq!(dag.dist[2], 2);
        let mut nh: Vec<NodeId> = dag.next_hops[2].iter().map(|&(v, _)| v).collect();
        nh.sort_unstable();
        assert_eq!(nh, vec![1, 3]);
        // Node 1 has exactly one next-hop: 0.
        assert_eq!(dag.next_hops[1].len(), 1);
        assert_eq!(dag.next_hops[1][0].0, 0);
    }

    #[test]
    fn path_counting() {
        let g = cycle(4);
        let dag = SpDag::towards(&g, 0);
        assert_eq!(dag.count_paths(2), 2); // both ways around
        assert_eq!(dag.count_paths(1), 1);
        assert_eq!(dag.count_paths(0), 1); // empty path

        // K4: adjacent nodes have exactly 1 shortest path.
        let dag = SpDag::towards(&k4(), 3);
        assert_eq!(dag.count_paths(0), 1);
    }

    #[test]
    fn parallel_edges_double_next_hops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        let g = b.build();
        let dag = SpDag::towards(&g, 1);
        // Two parallel edges => node 0 lists neighbor 1 twice (LAG-style).
        assert_eq!(dag.next_hops[0].len(), 2);
        assert_eq!(dag.count_paths(0), 2);
    }
}
