//! Graph substrate for the *Spineless Data Centers* reproduction.
//!
//! This crate provides the graph-algorithmic foundation every other crate in
//! the workspace builds on:
//!
//! * [`Graph`] — a compact, immutable, undirected multigraph in CSR form,
//!   built through [`GraphBuilder`]. Data-center switch-level topologies
//!   (leaf-spine, DRing, random regular graphs) are instances of this type.
//! * [`bfs`] — breadth-first shortest-path machinery: single-source and
//!   all-pairs hop distances, shortest-path DAGs, ECMP next-hop sets and
//!   shortest-path counting.
//! * [`paths`] — bounded-length simple-path enumeration, used by the
//!   Shortest-Union(K) routing scheme of the paper (§4).
//! * [`flow`] — unit-capacity max-flow (Edmonds–Karp) for edge-disjoint path
//!   counts, used to check the paper's path-diversity claims.
//! * [`digraph`] — a directed, integer-weighted graph with two
//!   shortest-path engines (binary-heap Dijkstra as the reference, a Dial
//!   bucket queue for the small integer costs VRF graphs carry), the
//!   nested weighted shortest-path DAG, and next hops derived from
//!   distance labels alone; this is the representation of the *VRF graph*
//!   of §4 of the paper.
//! * [`spectral`] — power-iteration spectral gap estimation, quantifying how
//!   expander-like a topology is.
//! * [`cuts`] — randomized + local-search bisection-bandwidth estimation,
//!   used to demonstrate that the DRing's bisection is `O(n)` worse than an
//!   expander's (paper §3.2 and §6.3).
//! * [`par`] — the one deterministic, order-preserving worker pool that
//!   every sweep and routing-state build in the workspace runs on.
//!
//! Everything is deterministic: algorithms that need randomness take an
//! explicit [`rand::Rng`].
//!
//! # Example
//!
//! ```
//! use spineless_graph::{GraphBuilder, bfs};
//!
//! // A 4-cycle.
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 3);
//! b.add_edge(3, 0);
//! let g = b.build();
//!
//! let d = bfs::distances(&g, 0);
//! assert_eq!(d, vec![0, 1, 2, 1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod cuts;
pub mod digraph;
pub mod flow;
pub mod graph;
pub mod par;
pub mod paths;
pub mod spectral;

pub use bfs::DistanceMatrix;
pub use digraph::{DiGraph, DiGraphBuilder, DialScratch};
pub use graph::{Graph, GraphBuilder, GraphError, NodeId};

/// Identifier of an undirected edge inside a [`Graph`].
pub type EdgeId = u32;

/// Hop distance that marks a node as unreachable.
pub const UNREACHABLE: u32 = u32::MAX;
