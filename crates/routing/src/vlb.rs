//! Valiant load balancing (VLB) — the §2 baseline family.
//!
//! The expander literature the paper builds on (Kassing et al., "Beyond
//! fat-trees without antennae, mirrors, and disco-balls") load-balances
//! skewed traffic by routing each flow through a random intermediate ToR:
//! phase 1 goes `src → via` on shortest paths, phase 2 `via → dst`. This
//! obliterates hot spots at the cost of roughly doubling path length —
//! the exact trade the paper's Shortest-Union(K) tries to get cheaper.
//! We implement flow-level VLB (the `via` is pinned by the flow's hash,
//! like the hybrid scheme's flowlet granularity pins paths) as a
//! [`Forwarding`] plane so every experiment can compare against it.
//!
//! vnode encoding over `R` routers:
//! * `cur` in `[0, R)` — phase 0: at the source, `via` not yet drawn;
//! * `R + via·R + cur` — phase 1: heading to `via`;
//! * `R + R² + cur` — phase 2: heading to `dst`.

use crate::fib::{Forwarding, ForwardingState, RoutingScheme};
use spineless_graph::{EdgeId, Graph, NodeId, UNREACHABLE};

/// Flow-level Valiant load balancing over shortest-path ECMP phases.
#[derive(Debug, Clone)]
pub struct Vlb {
    /// Shortest-path state used by both phases (K = 1).
    pub ecmp: ForwardingState,
    routers: u32,
}

impl Vlb {
    /// Builds VLB forwarding for a physical topology.
    ///
    /// The graph must be connected: phase 1 routes to a uniformly drawn
    /// intermediate switch, so on a partitioned graph a flow whose `via`
    /// lands in another component would have no route even though its
    /// endpoints are mutually reachable.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected.
    pub fn build(graph: &Graph) -> Vlb {
        assert!(graph.is_connected(), "VLB requires a connected topology");
        let ecmp = ForwardingState::build(graph, RoutingScheme::Ecmp);
        Vlb {
            routers: graph.num_nodes(),
            ecmp,
        }
    }

    #[inline]
    fn phase1(&self, via: NodeId, cur: NodeId) -> NodeId {
        self.routers + via * self.routers + cur
    }

    #[inline]
    fn phase2(&self, cur: NodeId) -> NodeId {
        self.routers + self.routers * self.routers + cur
    }

    /// Decodes a vnode into (phase, via-if-phase1, current router).
    fn decode(&self, vnode: NodeId) -> (u8, NodeId, NodeId) {
        let r = self.routers;
        if vnode < r {
            (0, UNREACHABLE, vnode)
        } else if vnode < r + r * r {
            let x = vnode - r;
            (1, x / r, x % r)
        } else {
            (2, UNREACHABLE, vnode - r - r * r)
        }
    }

    /// The via router a flow with `hash` draws at `src` towards `dst`:
    /// uniform over all routers other than src and dst (falls back to
    /// direct phase 2 when no third router exists).
    fn draw_via(&self, src: NodeId, dst: NodeId, hash: u64) -> Option<NodeId> {
        if self.routers <= 2 {
            return None;
        }
        // Rejection-free: index into the router list with src/dst removed.
        let mut v = (hash % (self.routers as u64 - 2)) as u32;
        let (lo, hi) = (src.min(dst), src.max(dst));
        if v >= lo {
            v += 1;
        }
        if v >= hi {
            v += 1;
        }
        Some(v)
    }
}

impl Forwarding for Vlb {
    fn routers(&self) -> u32 {
        self.routers
    }

    fn start(&self, src: NodeId, _dst: NodeId) -> NodeId {
        src // phase 0
    }

    fn delivered(&self, vnode: NodeId, dst: NodeId) -> bool {
        match self.decode(vnode) {
            (0, _, cur) => cur == dst, // same-switch delivery
            (1, via, cur) => cur == dst && via == dst,
            (2, _, cur) => cur == dst,
            _ => unreachable!(),
        }
    }

    fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        self.ecmp.reachable(src, dst)
    }

    fn router_of(&self, vnode: NodeId) -> NodeId {
        self.decode(vnode).2
    }

    fn next_hop(&self, vnode: NodeId, dst: NodeId, hash: u64) -> (NodeId, EdgeId) {
        let (phase, via, cur) = self.decode(vnode);
        match phase {
            0 => {
                // Draw the via deterministically from the flow hash, then
                // take the first hop of the appropriate phase.
                match self.draw_via(cur, dst, hash) {
                    Some(via) if via != cur => {
                        let (nv, edge) = self.ecmp.next_hop(cur, via, hash);
                        let next = self.ecmp.vrf.router_of(nv);
                        if next == via {
                            (self.phase2(next), edge)
                        } else {
                            (self.phase1(via, next), edge)
                        }
                    }
                    _ => {
                        let (nv, edge) = self.ecmp.next_hop(cur, dst, hash);
                        (self.phase2(self.ecmp.vrf.router_of(nv)), edge)
                    }
                }
            }
            1 => {
                debug_assert_ne!(cur, via, "phase-1 arrival at via re-encodes as phase 2");
                let (nv, edge) = self.ecmp.next_hop(cur, via, hash);
                let next = self.ecmp.vrf.router_of(nv);
                if next == via {
                    (self.phase2(next), edge)
                } else {
                    (self.phase1(via, next), edge)
                }
            }
            _ => {
                let (nv, edge) = self.ecmp.next_hop(cur, dst, hash);
                (self.phase2(self.ecmp.vrf.router_of(nv)), edge)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spineless_graph::bfs;
    use spineless_topo::dring::DRing;

    fn dring_graph() -> Graph {
        DRing::uniform(6, 3, 32).build().graph
    }

    #[test]
    fn vnode_encoding_roundtrips() {
        let g = dring_graph();
        let v = Vlb::build(&g);
        for cur in 0..g.num_nodes() {
            assert_eq!(v.decode(cur), (0, UNREACHABLE, cur));
            assert_eq!(v.decode(v.phase2(cur)), (2, UNREACHABLE, cur));
            for via in 0..g.num_nodes() {
                assert_eq!(v.decode(v.phase1(via, cur)), (1, via, cur));
            }
        }
    }

    #[test]
    fn via_draw_avoids_endpoints_and_is_uniform_ish() {
        let g = dring_graph();
        let v = Vlb::build(&g);
        let mut seen = std::collections::BTreeSet::new();
        for h in 0..2000u64 {
            let via = v
                .draw_via(3, 10, h.wrapping_mul(0x9E3779B97F4A7C15))
                .unwrap();
            assert_ne!(via, 3);
            assert_ne!(via, 10);
            seen.insert(via);
        }
        // All 16 other routers appear.
        assert_eq!(seen.len(), (g.num_nodes() - 2) as usize);
    }

    #[test]
    fn routes_are_two_shortest_phases() {
        let g = dring_graph();
        let v = Vlb::build(&g);
        let dists = bfs::all_pairs_distances(&g);
        let mut rng = SmallRng::seed_from_u64(1);
        for (s, d) in [(0u32, 9u32), (2, 15), (4, 4 + 3)] {
            for _ in 0..32 {
                let route = v.sample_route_generic(s, d, &mut rng).unwrap();
                assert_eq!(route.last().unwrap().0, d);
                // Route length = d(s,via) + d(via,d) for SOME via: bounded
                // by twice the diameter and at least the direct distance.
                let len = route.len() as u32;
                assert!(len >= dists[s as usize][d as usize]);
                let diam = bfs::diameter(&g).unwrap();
                assert!(len <= 2 * diam, "len {len}");
                // Consecutive hops are physical edges.
                let mut cur = s;
                for &(r, e) in &route {
                    let (a, b) = g.edge(e);
                    assert!((a == cur && b == r) || (b == cur && a == r));
                    cur = r;
                }
            }
        }
    }

    #[test]
    fn same_hash_pins_the_via() {
        // Flow-level VLB: the same flow hash must always produce the same
        // route set (one via), like per-flow ECMP pinning.
        let g = dring_graph();
        let v = Vlb::build(&g);
        let hash = 0xABCD_EF01_2345_6789;
        let (nv1, _) = v.next_hop(0, 9, hash);
        let (nv2, _) = v.next_hop(0, 9, hash);
        assert_eq!(nv1, nv2);
    }

    #[test]
    fn mean_route_length_is_about_double_ecmp() {
        let g = dring_graph();
        let v = Vlb::build(&g);
        let ecmp = ForwardingState::build(&g, RoutingScheme::Ecmp);
        let mut rng = SmallRng::seed_from_u64(2);
        let (mut sum_v, mut sum_e, mut n) = (0usize, 0f64, 0u32);
        for s in 0..g.num_nodes() {
            for d in 0..g.num_nodes() {
                if s == d {
                    continue;
                }
                for _ in 0..4 {
                    sum_v += v.sample_route_generic(s, d, &mut rng).unwrap().len();
                    n += 1;
                }
                sum_e += 4.0 * ecmp.expected_route_hops(s, d).unwrap();
            }
        }
        let mean_v = sum_v as f64 / n as f64;
        let mean_e = sum_e / n as f64;
        assert!(
            mean_v > 1.6 * mean_e && mean_v < 2.4 * mean_e,
            "VLB {mean_v:.2} vs ECMP {mean_e:.2}"
        );
    }

    #[test]
    fn vlb_runs_through_the_simulator() {
        use spineless_topo::dring::DRing;
        let topo = DRing::uniform(6, 2, 24).build();
        let vlb = Vlb::build(&topo.graph);
        // Sanity via the Forwarding contract only (the engine lives in
        // spineless-sim, which depends on this crate): walk 200 sampled
        // routes and confirm termination.
        let mut rng = SmallRng::seed_from_u64(3);
        for i in 0..200u32 {
            let s = i % topo.num_switches();
            let d = (i * 7 + 1) % topo.num_switches();
            if s != d {
                let r = vlb.sample_route_generic(s, d, &mut rng).unwrap();
                assert!(!r.is_empty());
            }
        }
    }
}
