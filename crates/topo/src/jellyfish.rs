//! Incrementally expandable Jellyfish topologies (arXiv:1110.1687).
//!
//! [`crate::rrg::Rrg`] builds one random regular graph from scratch;
//! Jellyfish's signature property is *incremental growth*: to add a
//! switch, repeatedly remove a random existing cable `(u, v)` and wire
//! `(new, u)`, `(new, v)` in its place, consuming two of the new switch's
//! ports while leaving every existing switch's degree unchanged. This
//! module keeps the wiring state alive across growth steps, so the design
//! search can grow one network along a row of ascending switch budgets.

use crate::rrg::Rrg;
use crate::topology::{TopoError, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spineless_graph::{GraphBuilder, NodeId};
use std::collections::BTreeSet;

/// A growing Jellyfish network: a random regular graph plus the
/// paper's incremental expansion procedure.
#[derive(Debug, Clone)]
pub struct Jellyfish {
    /// Live cables in a stable order: growth steps remove a few and append
    /// the new switch's, so surviving cables keep their relative order.
    /// This order is the built graph's edge order, so it is part of every
    /// grown design (and of the design search's memo key).
    edges: Vec<(NodeId, NodeId)>,
    adj: Vec<BTreeSet<NodeId>>,
    net_degree: u32,
    servers_per_switch: u32,
    ports_per_switch: u32,
    seed: u64,
    rng: SmallRng,
}

impl Jellyfish {
    /// Builds the initial network: `switches` switches wired as a uniform
    /// RRG of network degree `net_degree` (via [`Rrg`], same seed ⇒ same
    /// wiring), each hosting `servers_per_switch` servers.
    pub fn new(
        switches: u32,
        net_degree: u32,
        servers_per_switch: u32,
        ports_per_switch: u32,
        seed: u64,
    ) -> Result<Jellyfish, TopoError> {
        if net_degree < 2 {
            return Err(TopoError::BadParameter(format!(
                "Jellyfish expansion needs network degree >= 2, got {net_degree}"
            )));
        }
        let t = Rrg::uniform(
            switches,
            net_degree,
            servers_per_switch,
            ports_per_switch,
            seed,
        )
        .try_build()?;
        let edges: Vec<(NodeId, NodeId)> = t.graph.edges().to_vec();
        let mut adj = vec![BTreeSet::new(); switches as usize];
        for &(u, v) in &edges {
            adj[u as usize].insert(v);
            adj[v as usize].insert(u);
        }
        Ok(Jellyfish {
            edges,
            adj,
            net_degree,
            servers_per_switch,
            ports_per_switch,
            seed,
            // Derived stream so growth draws don't replay the wiring draws.
            rng: SmallRng::seed_from_u64(seed ^ 0xD1B54A32D192ED03),
        })
    }

    /// Current switch count.
    pub fn num_switches(&self) -> u32 {
        self.adj.len() as u32
    }

    /// Grows the network by `new_switches` switches, each wired by the
    /// paper's procedure: remove a random cable `(u, v)` with both ends
    /// not yet adjacent to the new switch, add `(new, u)` and `(new, v)`;
    /// repeat until the new switch has `net_degree` network links (an odd
    /// degree leaves one port unused, as Jellyfish does). Surviving cables
    /// keep their relative order and endpoint orientation; the new cables
    /// follow them in the order they were wired.
    pub fn expand(&mut self, new_switches: u32) -> Result<(), TopoError> {
        let mut removed = Vec::new();
        for _ in 0..new_switches {
            let s = self.adj.len() as NodeId;
            self.adj.push(BTreeSet::new());
            removed.resize(self.edges.len(), false);
            for _ in 0..self.net_degree / 2 {
                let (i, u, v) = self.pick_replaceable(s, &removed)?;
                removed[i] = true;
                self.adj[u as usize].remove(&v);
                self.adj[v as usize].remove(&u);
                for w in [u, v] {
                    self.adj[s as usize].insert(w);
                    self.adj[w as usize].insert(s);
                    self.edges.push((s, w));
                }
            }
        }
        // Compact in order: survivors first (original relative order and
        // orientation), then the surviving new cables.
        removed.resize(self.edges.len(), false);
        let mut removed = removed.into_iter();
        self.edges
            .retain(|_| !removed.next().expect("one flag per cable"));
        Ok(())
    }

    /// A live cable `(u, v)` with `u, v ∉ N(s) ∪ {s}`, as `(index, u, v)`.
    fn pick_replaceable(
        &mut self,
        s: NodeId,
        removed: &[bool],
    ) -> Result<(usize, NodeId, NodeId), TopoError> {
        let unusable = |i: usize, adj: &[BTreeSet<NodeId>], edges: &[(NodeId, NodeId)]| {
            let (u, v) = edges[i];
            (i < removed.len() && removed[i])
                || u == s
                || v == s
                || adj[s as usize].contains(&u)
                || adj[s as usize].contains(&v)
        };
        for _ in 0..256 {
            let i = self.rng.gen_range(0..self.edges.len());
            if !unusable(i, &self.adj, &self.edges) {
                let (u, v) = self.edges[i];
                return Ok((i, u, v));
            }
        }
        // Dense corner: scan for the first valid candidate instead.
        for i in 0..self.edges.len() {
            if !unusable(i, &self.adj, &self.edges) {
                let (u, v) = self.edges[i];
                return Ok((i, u, v));
            }
        }
        Err(TopoError::ConstructionFailed(format!(
            "no replaceable cable left while wiring switch {s}"
        )))
    }

    /// The current network as a [`Topology`]. Cables appear in the stable
    /// order [`Jellyfish::expand`] maintains.
    pub fn topology(&self) -> Result<Topology, TopoError> {
        let n = self.num_switches();
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &self.edges {
            b.add_edge(u, v);
        }
        Topology::new(
            format!("jellyfish(switches={n},seed={})", self.seed),
            b.build(),
            vec![self.servers_per_switch; n as usize],
            self.ports_per_switch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degrees(t: &Topology) -> Vec<u32> {
        (0..t.num_switches()).map(|v| t.graph.degree(v)).collect()
    }

    #[test]
    fn expansion_preserves_degrees_and_connectivity() {
        let mut jf = Jellyfish::new(12, 6, 4, 12, 7).unwrap();
        let before = jf.topology().unwrap();
        assert_eq!(before.graph.regular_degree(), Some(6));
        jf.expand(3).unwrap();
        let after = jf.topology().unwrap();
        assert_eq!(after.num_switches(), 15);
        // The replace-a-cable rule keeps every switch at full degree.
        assert_eq!(after.graph.regular_degree(), Some(6));
        assert!(after.graph.is_connected());
        assert_eq!(after.num_servers(), 15 * 4);
    }

    #[test]
    fn expansion_keeps_survivors_in_order_and_orientation() {
        let mut jf = Jellyfish::new(10, 4, 2, 8, 3).unwrap();
        let before = jf.topology().unwrap().graph.edges().to_vec();
        jf.expand(2).unwrap();
        let after = jf.topology().unwrap().graph.edges().to_vec();
        // Surviving cables come first, in their old order and orientation;
        // every cable after them belongs to a new switch.
        let survivors: Vec<_> = before
            .iter()
            .filter(|e| after.contains(e))
            .copied()
            .collect();
        assert_eq!(after[..survivors.len()], survivors[..]);
        assert!(after[survivors.len()..].iter().all(|&(u, _)| u >= 10));
        // Each new switch replaces degree/2 cables — though the second may
        // replace one of the first's fresh cables rather than an old one.
        let removed = before.len() - survivors.len();
        assert!((2..=4).contains(&removed), "removed {removed}");
        // Net growth is degree/2 cables per switch either way.
        assert_eq!(after.len(), before.len() + 4);
    }

    #[test]
    fn expansion_is_deterministic_per_seed() {
        let build = |seed| {
            let mut jf = Jellyfish::new(10, 4, 2, 8, seed).unwrap();
            jf.expand(2).unwrap();
            jf.topology().unwrap()
        };
        assert_eq!(build(5).graph, build(5).graph);
        assert_ne!(build(5).graph, build(6).graph);
    }

    #[test]
    fn odd_degree_leaves_one_port_unused_on_new_switches() {
        let mut jf = Jellyfish::new(11, 5, 1, 6, 9).unwrap();
        jf.expand(1).unwrap();
        let t = jf.topology().unwrap();
        // The new switch wires 2 replaced cables = degree 4; old switches
        // keep whatever the initial RRG gave them.
        assert_eq!(*degrees(&t).last().unwrap(), 4);
    }

    #[test]
    fn rejects_degenerate_degree() {
        assert!(Jellyfish::new(8, 1, 1, 4, 0).is_err());
    }
}
