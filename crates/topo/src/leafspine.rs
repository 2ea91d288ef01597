//! The `leaf-spine(x, y)` topology of paper §3.1.
//!
//! Definition (verbatim from the paper):
//!
//! * there are `y` spines, each connected to all leaves;
//! * there are `x + y` leaves, each connected to all spines;
//! * each leaf is connected to `x` servers.
//!
//! Every switch therefore has radix `x + y`: a leaf uses `x` ports for
//! servers and `y` for spine uplinks; a spine uses all `x + y` ports for
//! leaf downlinks. The oversubscription ratio at a rack is `x / y` (server
//! bandwidth in, uplink bandwidth out), 3:1 in the paper's recommended
//! configuration `leaf-spine(48, 16)`.

use crate::topology::{TopoError, Topology};
use spineless_graph::{GraphBuilder, NodeId};

/// Builder for `leaf-spine(x, y)`.
///
/// Node numbering in the built graph: leaves are `0..x+y`, spines are
/// `x+y..x+2y`. Leaves host servers; spines host none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafSpine {
    /// Servers per leaf (`x` in the paper).
    pub servers_per_leaf: u32,
    /// Number of spines (`y` in the paper).
    pub spines: u32,
}

impl LeafSpine {
    /// `leaf-spine(x, y)` with `x` servers per leaf and `y` spines.
    pub fn new(x: u32, y: u32) -> LeafSpine {
        LeafSpine {
            servers_per_leaf: x,
            spines: y,
        }
    }

    /// The paper's evaluation configuration: `leaf-spine(48, 16)` —
    /// 64 leaves, 16 spines, 3072 servers, 3:1 oversubscription (§5.1).
    pub fn paper_config() -> LeafSpine {
        LeafSpine::new(48, 16)
    }

    /// Number of leaves (`x + y`).
    pub fn leaves(&self) -> u32 {
        self.servers_per_leaf + self.spines
    }

    /// Switch radix (`x + y`).
    pub fn radix(&self) -> u32 {
        self.servers_per_leaf + self.spines
    }

    /// Rack oversubscription ratio `x / y`.
    pub fn oversubscription(&self) -> f64 {
        self.servers_per_leaf as f64 / self.spines as f64
    }

    /// Fallible construction for untrusted parameters.
    pub fn try_build(&self) -> Result<Topology, TopoError> {
        let (x, y) = (self.servers_per_leaf, self.spines);
        if x == 0 || y == 0 {
            return Err(TopoError::BadParameter(format!(
                "leaf-spine({x},{y}): x and y must be positive"
            )));
        }
        let leaves = x + y;
        let n = leaves + y; // leaves then spines
        let mut b = GraphBuilder::new(n);
        for leaf in 0..leaves {
            for spine in 0..y {
                b.add_edge(leaf as NodeId, (leaves + spine) as NodeId);
            }
        }
        let mut servers = vec![x; leaves as usize];
        servers.extend(std::iter::repeat_n(0, y as usize));
        Topology::new(
            format!("leaf-spine({x},{y})"),
            b.build(),
            servers,
            self.radix(),
        )
    }

    /// Builds the topology.
    ///
    /// # Panics
    ///
    /// Panics if `x == 0 || y == 0`; use [`try_build`](Self::try_build) for
    /// untrusted input.
    pub fn build(&self) -> Topology {
        self.try_build().expect("invalid leaf-spine parameters")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_dimensions() {
        let ls = LeafSpine::paper_config();
        let t = ls.build();
        assert_eq!(t.num_switches(), 64 + 16);
        assert_eq!(t.num_racks(), 64);
        assert_eq!(t.num_servers(), 3072);
        assert_eq!(t.num_links(), 64 * 16);
        assert_eq!(ls.oversubscription(), 3.0);
        assert!(!t.is_flat());
    }

    #[test]
    fn every_port_is_used_exactly() {
        // Leaf-spine consumes the full radix at every switch: x+y each.
        let t = LeafSpine::new(6, 2).build();
        for v in 0..t.num_switches() {
            assert_eq!(t.ports_used(v), 8, "switch {v}");
        }
    }

    #[test]
    fn structure_is_complete_bipartite() {
        let ls = LeafSpine::new(4, 3);
        let t = ls.build();
        let leaves = ls.leaves();
        // Every leaf-spine pair cabled exactly once.
        for leaf in 0..leaves {
            for s in 0..ls.spines {
                assert_eq!(t.graph.multiplicity(leaf, leaves + s), 1);
            }
        }
        // No leaf-leaf or spine-spine links.
        for a in 0..leaves {
            for b in 0..leaves {
                if a != b {
                    assert!(!t.graph.has_edge(a, b));
                }
            }
        }
        for a in 0..ls.spines {
            for b in 0..ls.spines {
                if a != b {
                    assert!(!t.graph.has_edge(leaves + a, leaves + b));
                }
            }
        }
    }

    #[test]
    fn leaf_pairs_are_two_hops_apart() {
        let t = LeafSpine::new(4, 3).build();
        let d = spineless_graph::bfs::distances(&t.graph, 0);
        for leaf in 1..7 {
            assert_eq!(d[leaf as usize], 2);
        }
        for spine in 7..10 {
            assert_eq!(d[spine as usize], 1);
        }
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(LeafSpine::new(0, 4).try_build().is_err());
        assert!(LeafSpine::new(4, 0).try_build().is_err());
    }

    #[test]
    fn ecmp_path_count_between_leaves_is_spine_count() {
        // The classic property: y equal-cost 2-hop paths between any two
        // leaves, one per spine.
        let t = LeafSpine::new(5, 4).build();
        let dag = spineless_graph::bfs::SpDag::towards(&t.graph, 1);
        assert_eq!(dag.count_paths(0), 4);
    }
}
