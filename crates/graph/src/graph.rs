//! The core undirected multigraph type.
//!
//! Data-center topologies at the switch level are undirected multigraphs:
//! nodes are switches, edges are cables. Parallel edges matter — a DRing with
//! three supernodes wires supernode `i` to both `i+1` and `i+2`, which
//! coincide, producing doubled trunks — so the representation keeps an
//! explicit edge list rather than an adjacency *set*.
//!
//! [`Graph`] is immutable once built (CSR adjacency), which keeps the hot
//! BFS/forwarding loops allocation-free and cache-friendly. Construction goes
//! through [`GraphBuilder`].

use std::fmt;

/// Identifier of a node (switch) inside a [`Graph`].
pub type NodeId = u32;

use crate::EdgeId;

/// Errors produced when constructing or validating graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint referenced a node `>= num_nodes`.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the graph.
        num_nodes: u32,
    },
    /// A self-loop was supplied where it is not permitted.
    SelfLoop(NodeId),
    /// A degree constraint was violated (e.g. building a regular graph).
    DegreeViolation {
        /// The offending node id.
        node: NodeId,
        /// Its actual degree.
        actual: u32,
        /// The expected degree.
        expected: u32,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range (graph has {num_nodes} nodes)")
            }
            GraphError::SelfLoop(n) => write!(f, "self loop at node {n} is not permitted"),
            GraphError::DegreeViolation {
                node,
                actual,
                expected,
            } => write!(f, "node {node} has degree {actual}, expected {expected}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder for [`Graph`].
///
/// Edges may be added in any order; `build` freezes the graph into CSR form.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    num_nodes: u32,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: u32) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge between `a` and `b`.
    ///
    /// Parallel edges are allowed (each call creates a distinct edge).
    /// Self-loops are rejected: a cable from a switch to itself carries no
    /// traffic in any topology we model.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or `a == b`; topology
    /// builders are trusted code, so endpoint errors are programming bugs.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> EdgeId {
        assert!(
            a < self.num_nodes,
            "endpoint {a} out of range ({})",
            self.num_nodes
        );
        assert!(
            b < self.num_nodes,
            "endpoint {b} out of range ({})",
            self.num_nodes
        );
        assert_ne!(a, b, "self loop at node {a}");
        let id = self.edges.len() as EdgeId;
        self.edges.push((a, b));
        id
    }

    /// Fallible variant of [`add_edge`](Self::add_edge) for untrusted input.
    pub fn try_add_edge(&mut self, a: NodeId, b: NodeId) -> Result<EdgeId, GraphError> {
        if a >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: a,
                num_nodes: self.num_nodes,
            });
        }
        if b >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: b,
                num_nodes: self.num_nodes,
            });
        }
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        Ok(self.add_edge(a, b))
    }

    /// Freezes the builder into an immutable [`Graph`].
    pub fn build(self) -> Graph {
        Graph::from_edges(self.num_nodes, self.edges)
    }
}

/// An immutable undirected multigraph in CSR (compressed sparse row) form.
///
/// * Nodes are dense ids `0..num_nodes()`.
/// * Edges are dense ids `0..num_edges()`; each undirected edge appears in
///   the adjacency of both endpoints, tagged with its [`EdgeId`], so
///   algorithms that must not reuse a physical cable (disjoint paths,
///   max-flow) can track edges rather than node pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    num_nodes: u32,
    /// Endpoint pairs, indexed by `EdgeId`. Stored with `a <= b`? No —
    /// stored exactly as supplied, so callers can recover orientation of
    /// construction (useful when mapping back to cabling bundles).
    edges: Vec<(NodeId, NodeId)>,
    /// CSR offsets: adjacency of node `v` is `adj[offsets[v]..offsets[v+1]]`.
    offsets: Vec<u32>,
    /// Flattened adjacency: (neighbor, edge id).
    adj: Vec<(NodeId, EdgeId)>,
}

impl Graph {
    /// Builds a graph from an explicit edge list.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self loops (see
    /// [`GraphBuilder::add_edge`]).
    pub fn from_edges(num_nodes: u32, edges: Vec<(NodeId, NodeId)>) -> Graph {
        let mut degree = vec![0u32; num_nodes as usize];
        for &(a, b) in &edges {
            assert!(
                a < num_nodes && b < num_nodes,
                "edge ({a},{b}) out of range"
            );
            assert_ne!(a, b, "self loop at {a}");
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(num_nodes as usize + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..num_nodes as usize].to_vec();
        let mut adj = vec![(0u32, 0u32); 2 * edges.len()];
        for (eid, &(a, b)) in edges.iter().enumerate() {
            let eid = eid as EdgeId;
            adj[cursor[a as usize] as usize] = (b, eid);
            cursor[a as usize] += 1;
            adj[cursor[b as usize] as usize] = (a, eid);
            cursor[b as usize] += 1;
        }
        Graph {
            num_nodes,
            edges,
            offsets,
            adj,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of undirected edges (parallel edges counted individually).
    #[inline]
    pub fn num_edges(&self) -> u32 {
        self.edges.len() as u32
    }

    /// Endpoints of edge `e` in construction order.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e as usize]
    }

    /// All edges, indexed by [`EdgeId`].
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Degree of node `v` (number of incident edge endpoints).
    #[inline]
    pub fn degree(&self, v: NodeId) -> u32 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Neighbors of `v` with the edge that reaches each of them.
    ///
    /// A neighbor reachable through `k` parallel edges appears `k` times.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Given an edge and one endpoint, returns the other endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (a, b) = self.edges[e as usize];
        if v == a {
            b
        } else {
            assert_eq!(v, b, "node {v} is not an endpoint of edge {e}");
            a
        }
    }

    /// Maximum degree over all nodes; 0 for an empty graph.
    pub fn max_degree(&self) -> u32 {
        (0..self.num_nodes)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Minimum degree over all nodes; 0 for an empty graph.
    pub fn min_degree(&self) -> u32 {
        (0..self.num_nodes)
            .map(|v| self.degree(v))
            .min()
            .unwrap_or(0)
    }

    /// `true` iff every node has the same degree `d`; returns that degree.
    pub fn regular_degree(&self) -> Option<u32> {
        if self.num_nodes == 0 {
            return None;
        }
        let d = self.degree(0);
        (1..self.num_nodes)
            .all(|v| self.degree(v) == d)
            .then_some(d)
    }

    /// `true` iff the graph is connected (or has at most one node).
    pub fn is_connected(&self) -> bool {
        if self.num_nodes <= 1 {
            return true;
        }
        let d = crate::bfs::distances(self, 0);
        d.iter().all(|&x| x != crate::UNREACHABLE)
    }

    /// Number of parallel edges between `a` and `b` (0 if none).
    pub fn multiplicity(&self, a: NodeId, b: NodeId) -> u32 {
        self.neighbors(a).iter().filter(|&&(n, _)| n == b).count() as u32
    }

    /// `true` if at least one edge joins `a` and `b`.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.multiplicity(a, b) > 0
    }

    /// Validates that every node has exactly degree `expected`.
    pub fn check_regular(&self, expected: u32) -> Result<(), GraphError> {
        for v in 0..self.num_nodes {
            let d = self.degree(v);
            if d != expected {
                return Err(GraphError::DegreeViolation {
                    node: v,
                    actual: d,
                    expected,
                });
            }
        }
        Ok(())
    }

    /// Returns the same graph with an edge subset removed — used for failure
    /// injection. Edge ids are *not* preserved; the surviving edges are
    /// renumbered densely in their original relative order.
    pub fn without_edges(&self, removed: &[EdgeId]) -> Graph {
        let mut dead = vec![false; self.edges.len()];
        for &e in removed {
            dead[e as usize] = true;
        }
        let kept: Vec<(NodeId, NodeId)> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(i, _)| !dead[*i])
            .map(|(_, &e)| e)
            .collect();
        Graph::from_edges(self.num_nodes, kept)
    }

    /// Returns the graph with a node's incident edges removed (the node id
    /// space is unchanged; the node becomes isolated) — switch failure.
    pub fn without_node(&self, v: NodeId) -> Graph {
        let kept: Vec<(NodeId, NodeId)> = self
            .edges
            .iter()
            .copied()
            .filter(|&(a, b)| a != v && b != v)
            .collect();
        Graph::from_edges(self.num_nodes, kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        // 0 - 1 - 2
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.build()
    }

    #[test]
    fn builds_csr_adjacency() {
        let g = path3();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 1);
        let n1: Vec<NodeId> = g.neighbors(1).iter().map(|&(n, _)| n).collect();
        assert!(n1.contains(&0) && n1.contains(&2));
    }

    #[test]
    fn parallel_edges_are_distinct() {
        let mut b = GraphBuilder::new(2);
        let e0 = b.add_edge(0, 1);
        let e1 = b.add_edge(0, 1);
        assert_ne!(e0, e1);
        let g = b.build();
        assert_eq!(g.multiplicity(0, 1), 2);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn other_endpoint_works() {
        let g = path3();
        assert_eq!(g.other_endpoint(0, 0), 1);
        assert_eq!(g.other_endpoint(0, 1), 0);
    }

    #[test]
    #[should_panic(expected = "self loop")]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1);
    }

    #[test]
    fn try_add_edge_reports_errors() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.try_add_edge(0, 5),
            Err(GraphError::NodeOutOfRange {
                node: 5,
                num_nodes: 2
            })
        );
        assert_eq!(b.try_add_edge(1, 1), Err(GraphError::SelfLoop(1)));
        assert!(b.try_add_edge(0, 1).is_ok());
    }

    #[test]
    fn connectivity() {
        assert!(path3().is_connected());
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        assert!(!b.build().is_connected());
        assert!(GraphBuilder::new(1).build().is_connected());
        assert!(GraphBuilder::new(0).build().is_connected());
    }

    #[test]
    fn regular_degree_detection() {
        let mut b = GraphBuilder::new(4);
        for (a, x) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_edge(a, x);
        }
        let g = b.build();
        assert_eq!(g.regular_degree(), Some(2));
        assert!(g.check_regular(2).is_ok());
        assert!(matches!(
            g.check_regular(3),
            Err(GraphError::DegreeViolation { expected: 3, .. })
        ));
        assert_eq!(path3().regular_degree(), None);
    }

    #[test]
    fn edge_removal_renumbers_densely() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1); // e0
        b.add_edge(1, 2); // e1
        b.add_edge(0, 2); // e2
        let g = b.build().without_edges(&[1]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge(0), (0, 1));
        assert_eq!(g.edge(1), (0, 2));
        assert!(!g.has_edge(1, 2));
    }

    #[test]
    fn node_removal_isolates() {
        let g = path3().without_node(1);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.degree(1), 0);
    }

    #[test]
    fn clone_preserves_equality() {
        let g = path3();
        let g2 = g.clone();
        assert_eq!(g, g2);
    }
}
