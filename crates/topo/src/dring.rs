//! The DRing topology of paper §3.2.
//!
//! A DRing is a *supergraph* ring of `m` supernodes, numbered cyclically,
//! where supernode `i` is connected to supernodes `i + 1` and `i + 2`. Each
//! supernode holds a group of ToR switches, and **every pair of ToRs in
//! adjacent supernodes is directly cabled** (complete bipartite trunks).
//! All switches play the exact same role — DRing is flat.
//!
//! Server placement follows the flat rule: each ToR fills its leftover
//! ports (radix minus network degree) with servers. With uniform supernode
//! size `n` and `m ≥ 5`, each supernode has four supergraph neighbours
//! (`±1, ±2`), so every ToR has `4n` network links.
//!
//! DRing is intentionally *not* an expander — its bisection bandwidth is
//! `O(n)` worse (§3.2) — yet it outperforms leaf-spine at moderate scale;
//! that contrast is the paper's central point.

use crate::topology::{TopoError, Topology};
use spineless_graph::{GraphBuilder, NodeId};

/// Builder for DRing topologies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DRing {
    /// ToRs per supernode, one entry per supernode (ragged sizes allowed —
    /// the paper's 12-supernode/80-rack configuration is ragged).
    pub sizes: Vec<u32>,
    /// Switch radix (total ports per switch).
    pub ports_per_switch: u32,
}

impl DRing {
    /// A DRing with `supernodes` supernodes of `tors` ToRs each.
    pub fn uniform(supernodes: u32, tors: u32, ports_per_switch: u32) -> DRing {
        DRing {
            sizes: vec![tors; supernodes as usize],
            ports_per_switch,
        }
    }

    /// A DRing with explicitly sized supernodes.
    pub fn with_sizes(sizes: Vec<u32>, ports_per_switch: u32) -> DRing {
        DRing {
            sizes,
            ports_per_switch,
        }
    }

    /// The paper's §5.1 evaluation configuration: 12 supernodes, 80 racks,
    /// 64-port switches (same hardware as `leaf-spine(48,16)`).
    ///
    /// The paper reports 2988 servers; supernode sizes are not given, so we
    /// use the repeating pattern `[7, 7, 6] × 4` (80 racks), which under the
    /// fill-leftover-ports rule yields 2992 servers — within 0.15 % of the
    /// paper and, like the paper's figure, ≈ 2.8 % fewer than the
    /// leaf-spine's 3072 (see DESIGN.md substitution notes).
    pub fn paper_config() -> DRing {
        let mut sizes = Vec::with_capacity(12);
        for _ in 0..4 {
            sizes.extend_from_slice(&[7, 7, 6]);
        }
        DRing::with_sizes(sizes, 64)
    }

    /// The §6.3 scale-study configuration: uniform supernodes of 6 ToRs on
    /// 60-port switches (24 network ports, 36 server ports per ToR).
    pub fn scale_config(supernodes: u32) -> DRing {
        DRing::uniform(supernodes, 6, 60)
    }

    /// Number of supernodes.
    pub fn supernodes(&self) -> u32 {
        self.sizes.len() as u32
    }

    /// Total ToRs across all supernodes.
    pub fn num_tors(&self) -> u32 {
        self.sizes.iter().sum()
    }

    /// Adds one supernode of `tors` ToRs to the ring — the paper's
    /// incremental-expansion story ("easily incrementally expandable, by
    /// adding supernodes"). Returns `self` for chaining.
    pub fn add_supernode(mut self, tors: u32) -> DRing {
        self.sizes.push(tors);
        self
    }

    /// The deduplicated supergraph edge set `{i, i+1}` and `{i, i+2}`
    /// (duplicates arise for `m ≤ 5`; for `m == 3` and `m == 4` the
    /// supergraph degenerates to the complete graph `K_m`).
    pub fn supergraph_edges(&self) -> Vec<(u32, u32)> {
        let m = self.supernodes();
        let mut set = std::collections::BTreeSet::new();
        for i in 0..m {
            for step in [1u32, 2] {
                let j = (i + step) % m;
                if i != j {
                    set.insert((i.min(j), i.max(j)));
                }
            }
        }
        set.into_iter().collect()
    }

    /// Supernode of a ToR (switch) id in the built topology.
    pub fn supernode_of(&self, tor: NodeId) -> u32 {
        let mut acc = 0u32;
        for (i, &s) in self.sizes.iter().enumerate() {
            acc += s;
            if tor < acc {
                return i as u32;
            }
        }
        panic!("ToR {tor} out of range ({} total)", self.num_tors());
    }

    /// Network degree of every ToR in supernode `i`: the sum of neighbour
    /// supernode sizes in the supergraph.
    pub fn network_degree(&self, supernode: u32) -> u32 {
        self.supergraph_edges()
            .iter()
            .map(|&(a, b)| {
                if a == supernode {
                    self.sizes[b as usize]
                } else if b == supernode {
                    self.sizes[a as usize]
                } else {
                    0
                }
            })
            .sum()
    }

    /// Fallible construction.
    ///
    /// Fails if there are fewer than 3 supernodes, any supernode is empty,
    /// or a ToR's network degree exceeds (or equals — servers would be 0)
    /// the radix.
    pub fn try_build(&self) -> Result<Topology, TopoError> {
        let m = self.supernodes();
        if m < 3 {
            return Err(TopoError::BadParameter(format!(
                "DRing needs at least 3 supernodes, got {m}"
            )));
        }
        if self.sizes.contains(&0) {
            return Err(TopoError::BadParameter("empty supernode".into()));
        }
        let total = self.num_tors();
        // Node numbering: supernode 0's ToRs first, then supernode 1's, ...
        let mut first_tor = Vec::with_capacity(m as usize);
        let mut acc = 0u32;
        for &s in &self.sizes {
            first_tor.push(acc);
            acc += s;
        }
        let mut b = GraphBuilder::new(total);
        for (i, j) in self.supergraph_edges() {
            for u in 0..self.sizes[i as usize] {
                for v in 0..self.sizes[j as usize] {
                    b.add_edge(first_tor[i as usize] + u, first_tor[j as usize] + v);
                }
            }
        }
        let g = b.build();
        let mut servers = Vec::with_capacity(total as usize);
        for v in 0..total {
            let deg = g.degree(v);
            if deg >= self.ports_per_switch {
                return Err(TopoError::PortOverflow {
                    switch: v,
                    needed: deg + 1,
                    radix: self.ports_per_switch,
                });
            }
            servers.push(self.ports_per_switch - deg);
        }
        Topology::new(
            format!("dring(m={m},racks={total})"),
            g,
            servers,
            self.ports_per_switch,
        )
    }

    /// Builds the topology.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters; use [`try_build`](Self::try_build) for
    /// untrusted input.
    pub fn build(&self) -> Topology {
        self.try_build().expect("invalid DRing parameters")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_reported_scale() {
        let d = DRing::paper_config();
        let t = d.build();
        assert_eq!(t.num_racks(), 80);
        assert_eq!(d.supernodes(), 12);
        // Paper reports 2988 servers (~2.8% below leaf-spine's 3072); our
        // ragged sizes give 2992 (~2.6% below) — see builder docs.
        assert_eq!(t.num_servers(), 2992);
        let deficit = 1.0 - t.num_servers() as f64 / 3072.0;
        assert!(deficit > 0.02 && deficit < 0.035, "deficit {deficit}");
        assert!(t.is_flat());
    }

    #[test]
    fn uniform_network_degree_is_4n() {
        // m >= 5: each supernode has 4 distinct neighbours.
        let d = DRing::uniform(6, 4, 32);
        let t = d.build();
        for v in 0..t.num_switches() {
            assert_eq!(t.graph.degree(v), 16, "ToR {v}");
            assert_eq!(t.servers[v as usize], 16);
        }
    }

    #[test]
    fn scale_config_matches_fig6_text() {
        // "6 switches per supernode with 60 ports per switch, 36 of which
        // were server links" => network degree 24.
        let t = DRing::scale_config(8).build();
        for v in 0..t.num_switches() {
            assert_eq!(t.graph.degree(v), 24);
            assert_eq!(t.servers[v as usize], 36);
        }
        assert_eq!(t.num_racks(), 48);
    }

    #[test]
    fn supergraph_edges_dedup_small_m() {
        // m=3: triangle (3 edges), m=4: K4 (6 edges), m=5: 10 edges?
        // m=5: each node to ±1, ±2 → complete graph K5 (10 edges).
        assert_eq!(DRing::uniform(3, 2, 32).supergraph_edges().len(), 3);
        assert_eq!(DRing::uniform(4, 2, 32).supergraph_edges().len(), 6);
        assert_eq!(DRing::uniform(5, 2, 32).supergraph_edges().len(), 10);
        // m=6: 6 ring edges + 6 chord edges = 12, not complete (15).
        assert_eq!(DRing::uniform(6, 2, 32).supergraph_edges().len(), 12);
    }

    #[test]
    fn adjacent_supernodes_fully_bipartite() {
        let d = DRing::uniform(6, 3, 32);
        let t = d.build();
        // Supernode 0 = ToRs 0..3, supernode 1 = ToRs 3..6: all 9 pairs.
        for u in 0..3 {
            for v in 3..6 {
                assert_eq!(t.graph.multiplicity(u, v), 1, "({u},{v})");
            }
        }
        // Supernode 0 and supernode 3 are NOT adjacent (distance 3 in ring).
        for u in 0..3 {
            for v in 9..12 {
                assert!(!t.graph.has_edge(u, v), "({u},{v})");
            }
        }
        // No intra-supernode links.
        assert!(!t.graph.has_edge(0, 1));
    }

    #[test]
    fn supernode_of_lookup() {
        let d = DRing::with_sizes(vec![2, 3, 4], 32);
        assert_eq!(d.supernode_of(0), 0);
        assert_eq!(d.supernode_of(1), 0);
        assert_eq!(d.supernode_of(2), 1);
        assert_eq!(d.supernode_of(4), 1);
        assert_eq!(d.supernode_of(5), 2);
        assert_eq!(d.supernode_of(8), 2);
    }

    #[test]
    fn incremental_expansion_adds_racks() {
        let base = DRing::uniform(5, 4, 40);
        let grown = base.clone().add_supernode(4);
        assert_eq!(grown.supernodes(), 6);
        let t = grown.build();
        assert_eq!(t.num_racks(), 24);
        assert!(t.is_flat());
    }

    #[test]
    fn supernode_append_is_the_uniform_ring_one_larger() {
        // The design search builds each grown ring uniform at its new size;
        // appending an equal supernode must give exactly that ring.
        for (n, tors, radix) in [(5, 1, 8), (5, 4, 40), (9, 2, 16), (12, 3, 32)] {
            let grown = DRing::uniform(n, tors, radix).add_supernode(tors).build();
            let fresh = DRing::uniform(n + 1, tors, radix).build();
            assert_eq!(grown.name, fresh.name);
            assert_eq!(grown.graph, fresh.graph, "n={n} tors={tors}");
            assert_eq!(grown.servers, fresh.servers);
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(DRing::uniform(2, 4, 32).try_build().is_err());
        assert!(DRing::with_sizes(vec![3, 0, 3], 32).try_build().is_err());
        // Radix too small for network degree (4*4=16 >= 16 leaves 0 servers).
        assert!(matches!(
            DRing::uniform(6, 4, 16).try_build(),
            Err(TopoError::PortOverflow { .. })
        ));
    }

    #[test]
    fn dring_diameter_grows_with_ring() {
        // Supergraph hop distance between opposite supernodes is about m/4
        // (steps of 2); ToR-level adds nothing since trunks are bipartite.
        let t = DRing::uniform(12, 2, 32).build();
        let diam = spineless_graph::bfs::diameter(&t.graph).unwrap();
        assert_eq!(diam, 3); // 12/4 = 3 supersteps
        let t = DRing::uniform(20, 2, 48).build();
        assert_eq!(spineless_graph::bfs::diameter(&t.graph).unwrap(), 5);
    }
}
