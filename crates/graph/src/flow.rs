//! Unit-capacity max-flow for disjoint-path counting.
//!
//! Paper §4 claims that Shortest-Union(2) on a DRing exposes at least
//! `n + 1` disjoint paths between any two racks (`n` = ToRs per supernode).
//! Edge-disjoint path counts are max-flow values with unit capacities
//! (Menger), so this module implements Edmonds–Karp, plus the undirected
//! reduction where the two arcs of an edge act as each other's residual.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// A directed flow network with integer capacities, built arc-by-arc.
///
/// Each `add_arc` creates the arc *and* its residual reverse arc (capacity
/// 0). [`FlowNetwork::add_undirected_unit`] instead creates a pair of
/// capacity-1 arcs that serve as each other's residuals — the standard
/// reduction for undirected edge-disjoint paths.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    num_nodes: u32,
    /// heads[i] = target node of arc i; arcs stored so that arc `i ^ 1` is
    /// the reverse of arc `i`.
    heads: Vec<u32>,
    caps: Vec<u32>,
    /// adjacency: arc indices leaving each node.
    adj: Vec<Vec<u32>>,
}

impl FlowNetwork {
    /// Creates an empty network over `num_nodes` nodes.
    pub fn new(num_nodes: u32) -> Self {
        FlowNetwork {
            num_nodes,
            heads: Vec::new(),
            caps: Vec::new(),
            adj: vec![Vec::new(); num_nodes as usize],
        }
    }

    /// Number of nodes in the network.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Adds a directed arc `u -> v` with capacity `cap` (plus its zero-
    /// capacity residual).
    pub fn add_arc(&mut self, u: NodeId, v: NodeId, cap: u32) {
        assert!(u < self.num_nodes && v < self.num_nodes);
        let i = self.heads.len() as u32;
        self.heads.push(v);
        self.caps.push(cap);
        self.adj[u as usize].push(i);
        self.heads.push(u);
        self.caps.push(0);
        self.adj[v as usize].push(i + 1);
    }

    /// Adds an undirected unit-capacity edge `u -- v`: two arcs of capacity
    /// 1 that are each other's residuals, so the edge can carry one unit of
    /// flow in either direction but not both.
    pub fn add_undirected_unit(&mut self, u: NodeId, v: NodeId) {
        assert!(u < self.num_nodes && v < self.num_nodes);
        let i = self.heads.len() as u32;
        self.heads.push(v);
        self.caps.push(1);
        self.adj[u as usize].push(i);
        self.heads.push(u);
        self.caps.push(1);
        self.adj[v as usize].push(i + 1);
    }

    /// Computes the max flow from `s` to `t` by Edmonds–Karp (BFS augmenting
    /// paths). Capacities are consumed; call on a fresh network.
    pub fn max_flow(&mut self, s: NodeId, t: NodeId) -> u32 {
        assert!(s < self.num_nodes && t < self.num_nodes);
        if s == t {
            return 0;
        }
        let mut total = 0u32;
        let n = self.num_nodes as usize;
        loop {
            // BFS recording the arc used to reach each node.
            let mut pred_arc = vec![u32::MAX; n];
            let mut visited = vec![false; n];
            visited[s as usize] = true;
            let mut q = VecDeque::new();
            q.push_back(s);
            'bfs: while let Some(u) = q.pop_front() {
                for &a in &self.adj[u as usize] {
                    if self.caps[a as usize] == 0 {
                        continue;
                    }
                    let v = self.heads[a as usize];
                    if visited[v as usize] {
                        continue;
                    }
                    visited[v as usize] = true;
                    pred_arc[v as usize] = a;
                    if v == t {
                        break 'bfs;
                    }
                    q.push_back(v);
                }
            }
            if !visited[t as usize] {
                return total;
            }
            // Find bottleneck.
            let mut bottleneck = u32::MAX;
            let mut v = t;
            while v != s {
                let a = pred_arc[v as usize];
                bottleneck = bottleneck.min(self.caps[a as usize]);
                v = self.heads[(a ^ 1) as usize];
            }
            // Apply.
            let mut v = t;
            while v != s {
                let a = pred_arc[v as usize];
                self.caps[a as usize] -= bottleneck;
                self.caps[(a ^ 1) as usize] += bottleneck;
                v = self.heads[(a ^ 1) as usize];
            }
            total += bottleneck;
        }
    }
}

/// Number of pairwise *edge-disjoint* paths between `s` and `t` in an
/// undirected graph (Menger's theorem: equals unit-capacity max flow).
pub fn edge_disjoint_paths(g: &Graph, s: NodeId, t: NodeId) -> u32 {
    let mut net = FlowNetwork::new(g.num_nodes());
    for &(a, b) in g.edges() {
        net.add_undirected_unit(a, b);
    }
    net.max_flow(s, t)
}

/// Number of pairwise *internally node-disjoint* paths between `s` and `t`
/// (node-splitting reduction: each node other than `s`,`t` becomes an
/// in-half and out-half joined by a unit arc).
pub fn node_disjoint_paths(g: &Graph, s: NodeId, t: NodeId) -> u32 {
    let n = g.num_nodes();
    // node v -> in = v, out = v + n
    let mut net = FlowNetwork::new(2 * n);
    for v in 0..n {
        let cap = if v == s || v == t { u32::MAX / 2 } else { 1 };
        net.add_arc(v, v + n, cap);
    }
    for &(a, b) in g.edges() {
        net.add_arc(a + n, b, 1);
        net.add_arc(b + n, a, 1);
    }
    net.max_flow(s, t + n)
}

/// Number of edge-disjoint paths between `s` and `t` *restricted to a given
/// path set* — e.g. the Shortest-Union(K) paths. Only the directed hops that
/// appear on some path in the set are usable, each physical edge once.
///
/// This is the quantity behind the paper's "(n + 1) disjoint paths" claim:
/// diversity usable by the routing scheme, not raw graph diversity.
pub fn disjoint_paths_within(g: &Graph, paths: &[Vec<NodeId>], s: NodeId, t: NodeId) -> u32 {
    // Collect the set of undirected edges used by any path.
    let mut used = vec![false; g.num_edges() as usize];
    for p in paths {
        for w in p.windows(2) {
            // Mark every parallel edge between the pair as usable; the
            // routing scheme may use any of them.
            for &(nb, e) in g.neighbors(w[0]) {
                if nb == w[1] {
                    used[e as usize] = true;
                }
            }
        }
    }
    let mut net = FlowNetwork::new(g.num_nodes());
    for (e, &(a, b)) in g.edges().iter().enumerate() {
        if used[e] {
            net.add_undirected_unit(a, b);
        }
    }
    net.max_flow(s, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::shortest_union_paths;
    use crate::GraphBuilder;

    fn k4() -> Graph {
        let mut b = GraphBuilder::new(4);
        for a in 0..4 {
            for c in (a + 1)..4 {
                b.add_edge(a, c);
            }
        }
        b.build()
    }

    #[test]
    fn k4_disjoint_paths() {
        let g = k4();
        // K4 is 3-regular and 3-connected.
        assert_eq!(edge_disjoint_paths(&g, 0, 3), 3);
        assert_eq!(node_disjoint_paths(&g, 0, 3), 3);
    }

    #[test]
    fn path_graph_has_one() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(edge_disjoint_paths(&g, 0, 2), 1);
        assert_eq!(node_disjoint_paths(&g, 0, 2), 1);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build();
        assert_eq!(edge_disjoint_paths(&g, 0, 3), 0);
    }

    #[test]
    fn parallel_edges_add_capacity() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(edge_disjoint_paths(&g, 0, 1), 3);
        // Node-disjoint counts the direct edges too (no internal nodes).
        assert_eq!(node_disjoint_paths(&g, 0, 1), 3);
    }

    #[test]
    fn node_vs_edge_disjoint_differ() {
        // Two triangles sharing a cut vertex 2:
        // 0-1-2-0 and 2-3-4-2. s=0, t=4.
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.add_edge(2, 3);
        b.add_edge(3, 4);
        b.add_edge(4, 2);
        let g = b.build();
        assert_eq!(edge_disjoint_paths(&g, 0, 4), 2);
        assert_eq!(node_disjoint_paths(&g, 0, 4), 1); // all through node 2
    }

    #[test]
    fn restricted_disjoint_paths() {
        let g = k4();
        // SU(2) between 0 and 1 uses direct edge + 2 two-hop paths:
        // 3 edge-disjoint paths within that set.
        let ps = shortest_union_paths(&g, 0, 1, 2, 100);
        assert_eq!(disjoint_paths_within(&g, &ps, 0, 1), 3);
        // Restricting to only the direct path gives 1.
        assert_eq!(disjoint_paths_within(&g, &[vec![0, 1]], 0, 1), 1);
        // Empty path set: no usable edges.
        assert_eq!(disjoint_paths_within(&g, &[], 0, 1), 0);
    }

    #[test]
    fn directed_max_flow_basics() {
        // s=0 -> 1 -> t=2 plus s -> t direct, capacities 1.
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 1);
        net.add_arc(1, 2, 1);
        net.add_arc(0, 2, 1);
        assert_eq!(net.max_flow(0, 2), 2);
        // Self flow is zero by definition.
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 5);
        assert_eq!(net.max_flow(0, 0), 0);
    }

    #[test]
    fn capacities_bottleneck() {
        // 0 -> 1 cap 5, 1 -> 2 cap 2 => flow 2.
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 5);
        net.add_arc(1, 2, 2);
        assert_eq!(net.max_flow(0, 2), 2);
    }
}
