//! Automated two-layer fat-tree design (arXiv:1301.6179).
//!
//! [`crate::leafspine::LeafSpine`] reproduces the paper's fixed baseline,
//! but it hard-couples the leaf count to `servers_per_leaf + spines`. The
//! design search needs the opposite direction: *given an equipment
//! envelope cell* (switch radix × switch budget), choose the best
//! two-layer fat-tree — how many switches become spines, how many leaves
//! to attach, how many servers per leaf. This is the two-level instance
//! of arXiv:1301.6179's cost-optimal fat-tree design: the designer
//! maximizes bisection-limited server capacity (per leaf, the lesser of
//! its server ports and its uplink ports) over the spine count, so the
//! spineful baseline each flat family competes against is the best one
//! the same equipment could buy, not a strawman.

use crate::topology::{TopoError, Topology};
use spineless_graph::GraphBuilder;

/// A concrete two-layer fat-tree design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTree {
    /// Leaf (ToR) switches; each connects once to every spine.
    pub leaves: u32,
    /// Spine switches.
    pub spines: u32,
    /// Servers on each leaf (`radix − spines` ports remain for them).
    pub servers_per_leaf: u32,
    /// Switch radix.
    pub ports_per_switch: u32,
}

impl FatTree {
    /// The best two-layer design for an envelope cell: at most
    /// `max_switches` switches of radix `ports_per_switch`. Scans the
    /// spine count, capping leaves at the radix (each spine port carries
    /// one leaf), and maximizes per-leaf capacity `min(servers, uplinks)`
    /// summed over leaves — ties break towards more servers, then fewer
    /// switches. `None` if no design with ≥ 2 leaves and ≥ 1 spine fits.
    pub fn fit(max_switches: u32, ports_per_switch: u32) -> Option<FatTree> {
        let mut best: Option<(u64, u64, u32, FatTree)> = None;
        for spines in 1..ports_per_switch {
            if max_switches <= spines {
                break;
            }
            let leaves = (max_switches - spines).min(ports_per_switch);
            if leaves < 2 {
                continue;
            }
            let servers_per_leaf = ports_per_switch - spines;
            let capacity = leaves as u64 * servers_per_leaf.min(spines) as u64;
            let servers = leaves as u64 * servers_per_leaf as u64;
            let switches = leaves + spines;
            let cand = FatTree {
                leaves,
                spines,
                servers_per_leaf,
                ports_per_switch,
            };
            let better = match &best {
                None => true,
                Some((bc, bs, bw, _)) => {
                    (capacity, servers, std::cmp::Reverse(switches))
                        > (*bc, *bs, std::cmp::Reverse(*bw))
                }
            };
            if better {
                best = Some((capacity, servers, switches, cand));
            }
        }
        best.map(|(_, _, _, d)| d)
    }

    /// Total switch count of the design.
    pub fn num_switches(&self) -> u32 {
        self.leaves + self.spines
    }

    /// Fallible construction: leaves `0..leaves`, spines after them, one
    /// cable per leaf–spine pair in leaf-major order.
    pub fn try_build(&self) -> Result<Topology, TopoError> {
        if self.leaves < 2 || self.spines < 1 {
            return Err(TopoError::BadParameter(format!(
                "fat-tree needs >= 2 leaves and >= 1 spine, got {}x{}",
                self.leaves, self.spines
            )));
        }
        if self.leaves > self.ports_per_switch {
            return Err(TopoError::PortOverflow {
                switch: self.leaves, // first spine
                needed: self.leaves,
                radix: self.ports_per_switch,
            });
        }
        let n = self.num_switches();
        let mut b = GraphBuilder::new(n);
        for l in 0..self.leaves {
            for s in 0..self.spines {
                b.add_edge(l, self.leaves + s);
            }
        }
        let mut servers = vec![self.servers_per_leaf; self.leaves as usize];
        servers.extend(std::iter::repeat_n(0, self.spines as usize));
        Topology::new(
            format!(
                "fattree(leaves={},spines={},radix={})",
                self.leaves, self.spines, self.ports_per_switch
            ),
            b.build(),
            servers,
            self.ports_per_switch,
        )
    }

    /// Builds the topology.
    ///
    /// # Panics
    ///
    /// Panics on construction failure; use [`try_build`](Self::try_build)
    /// for untrusted input.
    pub fn build(&self) -> Topology {
        self.try_build().expect("invalid fat-tree parameters")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn fit_balances_uplinks_against_servers() {
        // Ample switch budget, radix 16: the capacity objective peaks at
        // spines = radix/2 (8 uplinks, 8 servers per leaf).
        let d = FatTree::fit(64, 16).expect("fits");
        assert_eq!(d.spines, 8);
        assert_eq!(d.leaves, 16);
        assert_eq!(d.servers_per_leaf, 8);
        // Tight switch budget: growing spines eats leaves, optimum drops.
        let d = FatTree::fit(10, 16).expect("fits");
        assert!(d.num_switches() <= 10);
        assert!(d.spines < 8, "{d:?}");
        assert!(FatTree::fit(2, 16).is_none());
    }

    #[test]
    fn built_topology_is_a_leaf_spine() {
        let d = FatTree::fit(24, 12).expect("fits");
        let t = d.build();
        assert_eq!(t.num_switches(), d.num_switches());
        assert!(!t.is_flat());
        assert_eq!(t.num_racks(), d.leaves);
        assert_eq!(t.num_servers(), d.leaves * d.servers_per_leaf);
        // Leaves see every spine exactly once.
        for l in 0..d.leaves {
            assert_eq!(t.graph.degree(l), d.spines);
        }
        for s in 0..d.spines {
            assert_eq!(t.graph.degree(d.leaves + s), d.leaves);
        }
        assert!(t.graph.is_connected());
    }

    #[test]
    fn designed_fat_tree_has_leafspine_udf() {
        // The paper's Theorem: UDF of a two-layer leaf-spine is 2.
        let t = FatTree::fit(64, 16).expect("fits").build();
        let u = metrics::udf(&t, 11).unwrap();
        assert!((u - 2.0).abs() < 0.05, "UDF {u}");
    }

    #[test]
    fn nsr_matches_closed_form() {
        let d = FatTree::fit(64, 16).expect("fits");
        let t = d.build();
        let s = metrics::nsr(&t).unwrap();
        assert!((s.mean - d.spines as f64 / d.servers_per_leaf as f64).abs() < 1e-12);
        let mut rng = SmallRng::seed_from_u64(1);
        let sum = metrics::summarize(&t, &mut rng).unwrap();
        assert_eq!(sum.diameter, Some(2));
    }

    #[test]
    fn rejects_degenerate_designs() {
        assert!(FatTree {
            leaves: 1,
            spines: 1,
            servers_per_leaf: 2,
            ports_per_switch: 4
        }
        .try_build()
        .is_err());
        assert!(matches!(
            FatTree {
                leaves: 9,
                spines: 1,
                servers_per_leaf: 2,
                ports_per_switch: 8
            }
            .try_build(),
            Err(TopoError::PortOverflow { .. })
        ));
    }
}
