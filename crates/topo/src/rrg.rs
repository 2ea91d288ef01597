//! Jellyfish-style random regular graphs (RRG), the expander baseline.
//!
//! The paper's expander comparison point is "a regular random graph (RRG)
//! Jellyfish as it's a high-end expander" (§5.1), built **with the exact
//! same equipment as the leaf-spine**: servers are redistributed evenly
//! across all switches (including ex-spines) and the remaining ports are
//! wired up as a uniform random graph with no self-loops and no parallel
//! cables.
//!
//! Construction follows the Jellyfish recipe: repeatedly join random pairs
//! of switches that still have free ports and are not yet adjacent; when no
//! such pair exists but free ports remain, perform edge swaps that free up
//! compatible ports. The process is deterministic given the seed.

use crate::topology::{Equipment, TopoError, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spineless_graph::{GraphBuilder, NodeId};
use std::collections::BTreeSet;

/// Builder for random regular(ish) graphs with prescribed per-switch
/// network-port counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rrg {
    /// Network ports (target degree) per switch.
    pub network_ports: Vec<u32>,
    /// Servers per switch.
    pub servers: Vec<u32>,
    /// Switch radix.
    pub ports_per_switch: u32,
    /// RNG seed; the same seed always yields the same wiring.
    pub seed: u64,
}

impl Rrg {
    /// An RRG over `switches` identical switches, each with `net_degree`
    /// network ports and `servers_per_switch` servers.
    pub fn uniform(
        switches: u32,
        net_degree: u32,
        servers_per_switch: u32,
        ports_per_switch: u32,
        seed: u64,
    ) -> Rrg {
        Rrg {
            network_ports: vec![net_degree; switches as usize],
            servers: vec![servers_per_switch; switches as usize],
            ports_per_switch,
            seed,
        }
    }

    /// Rewires given [`Equipment`] the way §5.1 builds the paper's RRG:
    /// servers spread as evenly as possible over **all** switches (the first
    /// `servers % switches` switches take one extra), every remaining port
    /// becomes a network port.
    pub fn from_equipment(eq: Equipment, seed: u64) -> Rrg {
        let s = eq.switches as usize;
        let base = eq.servers / eq.switches;
        let extra = (eq.servers % eq.switches) as usize;
        let servers: Vec<u32> = (0..s)
            .map(|i| if i < extra { base + 1 } else { base })
            .collect();
        let network_ports: Vec<u32> = servers.iter().map(|&sv| eq.ports_per_switch - sv).collect();
        Rrg {
            network_ports,
            servers,
            ports_per_switch: eq.ports_per_switch,
            seed,
        }
    }

    /// Total network ports (twice the link count if all are matched).
    pub fn total_network_ports(&self) -> u64 {
        self.network_ports.iter().map(|&p| p as u64).sum()
    }

    /// Fallible construction. Fails if a switch's ports don't fit the radix
    /// or if the random wiring cannot be completed (pathological degree
    /// sequences).
    pub fn try_build(&self) -> Result<Topology, TopoError> {
        let n = self.network_ports.len();
        if n < 2 {
            return Err(TopoError::BadParameter(
                "RRG needs at least 2 switches".into(),
            ));
        }
        if self.servers.len() != n {
            return Err(TopoError::BadParameter(
                "network_ports and servers length mismatch".into(),
            ));
        }
        for (i, (&np, &sv)) in self.network_ports.iter().zip(&self.servers).enumerate() {
            if np + sv > self.ports_per_switch {
                return Err(TopoError::PortOverflow {
                    switch: i as NodeId,
                    needed: np + sv,
                    radix: self.ports_per_switch,
                });
            }
            if np as usize >= n {
                return Err(TopoError::BadParameter(format!(
                    "switch {i} wants degree {np} but only {} possible neighbours exist",
                    n - 1
                )));
            }
        }
        // Dense degree sequences (mean degree above half the possible
        // neighbours) are easier to realize as the complement of a sparse
        // random graph; sparse ones directly. Either way retry with derived
        // seeds if the random process wedges.
        let total: u64 = self.network_ports.iter().map(|&p| p as u64).sum();
        let dense = total * 2 > (n as u64) * (n as u64 - 1);
        let mut edges = None;
        let mut last_err = None;
        for attempt in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(
                self.seed
                    .wrapping_add(attempt.wrapping_mul(0x9E3779B97F4A7C15)),
            );
            let result = if dense {
                // An odd stub total cannot be fully matched; leave one port
                // of a max-degree switch unused *before* complementing, so
                // the complement never hands a switch an extra link.
                let mut want: Vec<u32> = self.network_ports.clone();
                if total % 2 == 1 {
                    let imax = (0..n).max_by_key(|&i| want[i]).expect("n >= 2");
                    want[imax] -= 1;
                }
                let comp: Vec<u32> = want.iter().map(|&d| (n as u32 - 1) - d).collect();
                let comp_total: u64 = comp.iter().map(|&d| d as u64).sum();
                random_wiring(&comp, &mut rng).and_then(|ce| {
                    // The complement wiring must be exact, or complementing
                    // would hand some switch an extra link.
                    if 2 * ce.len() as u64 == comp_total {
                        Ok(complement_edges(n as u32, &ce))
                    } else {
                        Err(TopoError::ConstructionFailed(
                            "complement wiring incomplete".into(),
                        ))
                    }
                })
            } else {
                random_wiring(&self.network_ports, &mut rng)
            };
            match result {
                Ok(e) => {
                    edges = Some(e);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let edges = match edges {
            Some(e) => e,
            None => return Err(last_err.expect("at least one attempt ran")),
        };
        let mut b = GraphBuilder::new(n as u32);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        Topology::new(
            format!("rrg(switches={n},seed={})", self.seed),
            b.build(),
            self.servers.clone(),
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
        self.try_build().expect("invalid RRG parameters")
    }
}

/// All unordered node pairs *not* present in `edges` — the complement of a
/// simple graph on `n` nodes.
fn complement_edges(n: u32, edges: &[(NodeId, NodeId)]) -> Vec<(NodeId, NodeId)> {
    let mut present = vec![false; (n as usize) * (n as usize)];
    for &(a, b) in edges {
        present[a as usize * n as usize + b as usize] = true;
        present[b as usize * n as usize + a as usize] = true;
    }
    let mut out = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if !present[a as usize * n as usize + b as usize] {
                out.push((a, b));
            }
        }
    }
    out
}

/// Produces a simple random graph realizing the degree sequence `target`
/// (except possibly one leftover port when the total is odd, matching
/// Jellyfish, which leaves an odd port unused).
fn random_wiring(target: &[u32], rng: &mut SmallRng) -> Result<Vec<(NodeId, NodeId)>, TopoError> {
    let n = target.len();
    let mut free: Vec<u32> = target.to_vec();
    let mut adj: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); n];
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let total: u64 = target.iter().map(|&t| t as u64).sum();
    let want_edges = (total / 2) as usize;

    // Phase 1: random greedy matching of free ports. The open list is
    // maintained incrementally (sorted, nodes dropped as their ports
    // exhaust) instead of being rebuilt per edge — that rebuild made
    // wiring O(n·E) and dominated flatten()/Jellyfish construction at
    // design-search scales. The RNG draws index the same sorted list the
    // per-iteration filter produced, so wirings are unchanged per seed.
    let mut open: Vec<NodeId> = (0..n as u32).filter(|&v| free[v as usize] > 0).collect();
    let mut stalls = 0u32;
    while edges.len() < want_edges {
        if open.len() < 2 {
            break;
        }
        let u = open[rng.gen_range(0..open.len())];
        let v = open[rng.gen_range(0..open.len())];
        if u == v || adj[u as usize].contains(&v) {
            stalls += 1;
            if stalls > 64 {
                // Phase 2: swaps. Pick any open pair and fix via an edge swap.
                if !swap_fix(&open, &mut free, &mut adj, &mut edges, rng) {
                    return Err(TopoError::ConstructionFailed(format!(
                        "random wiring stuck with {} ports unmatched",
                        open.iter().map(|&v| free[v as usize]).sum::<u32>()
                    )));
                }
                stalls = 0;
                // A swap touches nodes of its own choosing; re-derive the
                // (rarely needed) open set rather than track them.
                open = (0..n as u32).filter(|&v| free[v as usize] > 0).collect();
            }
            continue;
        }
        stalls = 0;
        connect(u, v, &mut free, &mut adj, &mut edges);
        for w in [v, u] {
            if free[w as usize] == 0 {
                let i = open.binary_search(&w).expect("open node tracked");
                open.remove(i);
            }
        }
    }
    // At most one stub may remain unmatched (odd totals, Jellyfish-style);
    // anything more means the process wedged on a single open node.
    let remaining = total - 2 * edges.len() as u64;
    if remaining > 1 {
        return Err(TopoError::ConstructionFailed(format!(
            "random wiring left {remaining} ports unmatched"
        )));
    }
    Ok(edges)
}

fn connect(
    u: NodeId,
    v: NodeId,
    free: &mut [u32],
    adj: &mut [BTreeSet<NodeId>],
    edges: &mut Vec<(NodeId, NodeId)>,
) {
    free[u as usize] -= 1;
    free[v as usize] -= 1;
    adj[u as usize].insert(v);
    adj[v as usize].insert(u);
    edges.push((u, v));
}

/// Jellyfish swap: some node `u` has free ports but every other open node is
/// already its neighbour. Remove a random existing edge `(a, b)` with
/// `a, b ∉ N(u) ∪ {u}` and wire `(u, a), (u, b)` instead (consumes two of
/// u's free ports), or the one-port variant pairing two stuck nodes.
/// Returns false if no applicable swap exists.
fn swap_fix(
    open: &[NodeId],
    free: &mut [u32],
    adj: &mut [BTreeSet<NodeId>],
    edges: &mut Vec<(NodeId, NodeId)>,
    rng: &mut SmallRng,
) -> bool {
    // Try the two-port swap for any open node with >= 2 free ports.
    let mut order: Vec<NodeId> = open.to_vec();
    // Deterministic shuffle via rng.
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    for &u in &order {
        if free[u as usize] < 2 {
            continue;
        }
        let candidates: Vec<usize> = (0..edges.len())
            .filter(|&i| {
                let (a, b) = edges[i];
                a != u && b != u && !adj[u as usize].contains(&a) && !adj[u as usize].contains(&b)
            })
            .collect();
        if !candidates.is_empty() {
            let i = candidates[rng.gen_range(0..candidates.len())];
            let (a, b) = edges.swap_remove(i);
            adj[a as usize].remove(&b);
            adj[b as usize].remove(&a);
            free[a as usize] += 1;
            free[b as usize] += 1;
            connect(u, a, free, adj, edges);
            connect(u, b, free, adj, edges);
            return true;
        }
    }
    // One-port variant: two distinct open nodes u, v (possibly adjacent)
    // each with one free port. Find edge (a,b) with a ∉ N(u)∪{u},
    // b ∉ N(v)∪{v}, remove it, add (u,a),(v,b).
    for &u in &order {
        for &v in &order {
            if u == v {
                continue;
            }
            for i in 0..edges.len() {
                let (a, b) = edges[i];
                for (a, b) in [(a, b), (b, a)] {
                    if a != u
                        && a != v
                        && b != u
                        && b != v
                        && !adj[u as usize].contains(&a)
                        && !adj[v as usize].contains(&b)
                    {
                        edges.swap_remove(i);
                        adj[a as usize].remove(&b);
                        adj[b as usize].remove(&a);
                        free[a as usize] += 1;
                        free[b as usize] += 1;
                        connect(u, a, free, adj, edges);
                        connect(v, b, free, adj, edges);
                        return true;
                    }
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leafspine::LeafSpine;

    #[test]
    fn uniform_rrg_is_regular_simple_connected() {
        let t = Rrg::uniform(20, 8, 10, 18, 1).build();
        assert_eq!(t.graph.regular_degree(), Some(8));
        assert!(t.graph.is_connected());
        assert!(t.is_flat());
        // Simple graph: no parallel edges.
        for e in 0..t.graph.num_edges() {
            let (a, b) = t.graph.edge(e);
            assert_eq!(t.graph.multiplicity(a, b), 1);
        }
    }

    #[test]
    fn from_equipment_preserves_hardware() {
        let ls = LeafSpine::paper_config().build();
        let eq = ls.equipment();
        let rrg = Rrg::from_equipment(eq, 7);
        let t = rrg.build();
        assert_eq!(t.num_switches(), 80);
        assert_eq!(t.num_servers(), 3072);
        assert_eq!(t.equipment(), eq);
        assert!(t.is_flat());
        // 3072/80 = 38.4: 32 switches with 39 servers, 48 with 38.
        let with39 = t.servers.iter().filter(|&&s| s == 39).count();
        let with38 = t.servers.iter().filter(|&&s| s == 38).count();
        assert_eq!((with39, with38), (32, 48));
        // All ports used: degree + servers = 64 everywhere.
        for v in 0..t.num_switches() {
            assert_eq!(t.ports_used(v), 64);
        }
    }

    #[test]
    fn deterministic_per_seed_and_varies_across_seeds() {
        let a = Rrg::uniform(16, 5, 4, 9, 42).build();
        let b = Rrg::uniform(16, 5, 4, 9, 42).build();
        assert_eq!(a.graph, b.graph);
        let c = Rrg::uniform(16, 5, 4, 9, 43).build();
        assert_ne!(a.graph, c.graph);
    }

    #[test]
    fn odd_total_ports_leaves_one_free() {
        // 5 switches, degree 3 => 15 stubs (odd): 7 edges, one port unused.
        let t = Rrg::uniform(5, 3, 1, 4, 3).build();
        assert_eq!(t.graph.num_edges(), 7);
        let degs: Vec<u32> = (0..5).map(|v| t.graph.degree(v)).collect();
        assert_eq!(degs.iter().sum::<u32>(), 14);
        assert!(degs.iter().all(|&d| d == 3 || d == 2));
    }

    #[test]
    fn dense_degree_sequence_still_completes() {
        // Degree n-2 on n=8 switches: heavy swap pressure.
        for seed in 0..5 {
            let t = Rrg::uniform(8, 6, 1, 7, seed).build();
            assert_eq!(t.graph.regular_degree(), Some(6), "seed {seed}");
        }
    }

    #[test]
    fn rejects_impossible_degree() {
        // Degree 5 with only 4 possible neighbours.
        assert!(Rrg::uniform(5, 5, 1, 6, 0).try_build().is_err());
        // Port overflow.
        assert!(matches!(
            Rrg::uniform(8, 6, 3, 8, 0).try_build(),
            Err(TopoError::PortOverflow { .. })
        ));
    }

    #[test]
    fn rrg_has_short_paths() {
        // Expanders have logarithmic diameter; degree-8 RRG on 40 nodes
        // should have diameter <= 3.
        let t = Rrg::uniform(40, 8, 4, 12, 5).build();
        let d = spineless_graph::bfs::diameter(&t.graph).unwrap();
        assert!(d <= 3, "diameter {d}");
    }
}
