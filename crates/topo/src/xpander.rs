//! Xpander-style expanders via random lifts (extension beyond the paper's
//! evaluated set).
//!
//! The paper's §2 cites Xpander [Valadarsky et al.] as a cabling-friendly
//! deterministic-structure alternative to Jellyfish with matching
//! performance, and §5.1 argues results for the RRG "apply to all high-end
//! expanders". We include an Xpander-style topology so that claim can be
//! checked inside this workspace: the construction is the standard random
//! `ℓ`-lift of the complete graph `K_{d+1}` — `d + 1` *metanodes* of `ℓ`
//! switches each; for every metanode pair, a random perfect matching between
//! their switch groups. Every switch gets network degree exactly `d`, and no
//! two switches in the same metanode are adjacent (the cabling-friendliness
//! property: inter-group trunks only).

use crate::topology::{TopoError, Topology};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use spineless_graph::GraphBuilder;

/// Builder for Xpander-style lifted expanders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xpander {
    /// Network degree `d`; the lift has `d + 1` metanodes.
    pub net_degree: u32,
    /// Lift factor `ℓ`: switches per metanode.
    pub lift: u32,
    /// Servers attached to every switch.
    pub servers_per_switch: u32,
    /// Switch radix.
    pub ports_per_switch: u32,
    /// RNG seed for the matchings.
    pub seed: u64,
}

impl Xpander {
    /// Creates the builder. Total switches = `(d + 1) · ℓ`.
    pub fn new(
        net_degree: u32,
        lift: u32,
        servers_per_switch: u32,
        ports_per_switch: u32,
        seed: u64,
    ) -> Xpander {
        Xpander {
            net_degree,
            lift,
            servers_per_switch,
            ports_per_switch,
            seed,
        }
    }

    /// Number of switches in the built topology.
    pub fn num_switches(&self) -> u32 {
        (self.net_degree + 1) * self.lift
    }

    /// Fallible construction.
    pub fn try_build(&self) -> Result<Topology, TopoError> {
        let d = self.net_degree;
        let l = self.lift;
        if d < 2 || l == 0 {
            return Err(TopoError::BadParameter(format!(
                "xpander needs degree >= 2 and lift >= 1, got d={d}, l={l}"
            )));
        }
        if d + self.servers_per_switch > self.ports_per_switch {
            return Err(TopoError::PortOverflow {
                switch: 0,
                needed: d + self.servers_per_switch,
                radix: self.ports_per_switch,
            });
        }
        let groups = d + 1;
        let n = groups * l;
        // A random lift is connected with high probability but not always
        // (aligned matchings can decompose it into parallel copies); the
        // Xpander construction rejects such lifts, so retry with derived
        // seeds until connected.
        let mut graph = None;
        for attempt in 0..32u64 {
            let mut rng = SmallRng::seed_from_u64(
                self.seed
                    .wrapping_add(attempt.wrapping_mul(0x9E3779B97F4A7C15)),
            );
            let mut b = GraphBuilder::new(n);
            // Metanode g occupies switches g*l .. (g+1)*l.
            for ga in 0..groups {
                for gb in (ga + 1)..groups {
                    // Random perfect matching between group ga and group gb.
                    let mut perm: Vec<u32> = (0..l).collect();
                    perm.shuffle(&mut rng);
                    for i in 0..l {
                        b.add_edge(ga * l + i, gb * l + perm[i as usize]);
                    }
                }
            }
            let g = b.build();
            if g.is_connected() {
                graph = Some(g);
                break;
            }
        }
        let graph = graph.ok_or_else(|| {
            TopoError::ConstructionFailed("no connected lift found in 32 attempts".into())
        })?;
        Topology::new(
            format!("xpander(d={d},lift={l})"),
            graph,
            vec![self.servers_per_switch; n as usize],
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
        self.try_build().expect("invalid Xpander parameters")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn lift_is_regular_and_flat() {
        let x = Xpander::new(8, 5, 10, 18, 1);
        let t = x.build();
        assert_eq!(t.num_switches(), 45);
        assert_eq!(t.graph.regular_degree(), Some(8));
        assert!(t.is_flat());
        assert!(t.graph.is_connected());
    }

    #[test]
    fn no_intra_group_links() {
        let x = Xpander::new(5, 4, 2, 8, 2);
        let t = x.build();
        let l = x.lift;
        for g in 0..(x.net_degree + 1) {
            for i in 0..l {
                for j in (i + 1)..l {
                    assert!(!t.graph.has_edge(g * l + i, g * l + j));
                }
            }
        }
    }

    #[test]
    fn exactly_one_link_per_group_pair_per_switch() {
        let x = Xpander::new(6, 3, 2, 9, 3);
        let t = x.build();
        let l = x.lift;
        // Each switch has exactly one neighbour in every other group.
        for v in 0..t.num_switches() {
            let my_group = v / l;
            let mut per_group = vec![0u32; (x.net_degree + 1) as usize];
            for &(nb, _) in t.graph.neighbors(v) {
                per_group[(nb / l) as usize] += 1;
            }
            for (g, &c) in per_group.iter().enumerate() {
                if g as u32 == my_group {
                    assert_eq!(c, 0);
                } else {
                    assert_eq!(c, 1, "switch {v} group {g}");
                }
            }
        }
    }

    #[test]
    fn lift_one_is_complete_graph() {
        let t = Xpander::new(4, 1, 1, 6, 0).build();
        assert_eq!(t.num_switches(), 5);
        assert_eq!(t.num_links(), 10); // K5
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Xpander::new(6, 4, 2, 9, 11).build();
        let b = Xpander::new(6, 4, 2, 9, 11).build();
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn is_a_good_expander() {
        // Spectral gap should be comfortably positive and near the RRG's.
        let t = Xpander::new(8, 6, 2, 11, 4).build();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
        let gap = spineless_graph::spectral::spectral_gap(&t.graph, 400, &mut rng);
        assert!(gap > 0.3, "gap {gap}");
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Xpander::new(1, 4, 1, 8, 0).try_build().is_err());
        assert!(Xpander::new(4, 0, 1, 8, 0).try_build().is_err());
        assert!(matches!(
            Xpander::new(6, 2, 4, 8, 0).try_build(),
            Err(TopoError::PortOverflow { .. })
        ));
    }
}
