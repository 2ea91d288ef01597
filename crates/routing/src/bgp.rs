//! A distributed eBGP control-plane simulator over the VRF graph.
//!
//! The paper prototypes Shortest-Union(2) in GNS3 on emulated Cisco 7200
//! routers: one AS per physical router, K VRFs per router, link costs set
//! by AS-path prepending, plain eBGP best-path selection, multipath across
//! equal AS-path lengths. Binary router images are not redistributable, so
//! we reproduce the *protocol behaviour* instead (see DESIGN.md): each VRF
//! is a path-vector speaker that
//!
//! * originates its own router's host prefix from the host VRF (level K);
//! * selects the shortest received AS path per prefix (deterministic
//!   tie-break on the path vector, like router-id tie-breaking);
//! * **rejects any path already containing its own router's ASN** — all
//!   VRFs of a router share the ASN, which is exactly why the paper's
//!   design is loop-free at router level;
//! * re-advertises its best path to neighbours with its ASN prepended once
//!   per unit of link cost (cost-`c` virtual links prepend `c` copies);
//! * installs an ECMP FIB over every neighbour whose advertisement ties
//!   the best length (BGP multipath requires equal AS-path length — the
//!   vendor restriction §4 discusses).
//!
//! Advertisements propagate in synchronous rounds until a fixpoint, which
//! is guaranteed because selection is monotone in path length. For
//! `K ≤ 2`, the converged FIBs coincide exactly with the centrally
//! computed Dijkstra DAGs of [`crate::fib::ForwardingState`]; for larger
//! `K`, AS-path loop prevention can prune router-revisiting min-cost walks
//! that plain Dijkstra admits, making BGP the *more faithful* model — the
//! tests pin both behaviours.

use crate::vrf::VrfGraph;
use spineless_graph::digraph::ArcId;
use spineless_graph::{NodeId, UNREACHABLE};

/// Result of converging BGP for one destination prefix.
#[derive(Debug, Clone)]
pub struct PrefixRoutes {
    /// Destination router (prefix owner).
    pub dst: NodeId,
    /// `best_len[v]` = selected AS-path length at VRF node `v`
    /// (`UNREACHABLE as u64` if no route).
    pub best_len: Vec<u64>,
    /// `fib[v]` = multipath next hops `(neighbour VRF node, arc)`.
    pub fib: Vec<Vec<(NodeId, ArcId)>>,
}

/// Result of converging all prefixes.
#[derive(Debug, Clone)]
pub struct BgpOutcome {
    /// Synchronous rounds until global fixpoint (max over prefixes).
    pub rounds: u32,
    /// Whether every prefix reached a fixpoint within the round budget.
    pub converged: bool,
    /// Per-destination routes, indexed by router id.
    pub prefixes: Vec<PrefixRoutes>,
}

/// Maximum rounds before declaring non-convergence. Shortest-AS-path BGP
/// converges within (diameter × K) rounds; this is a generous multiple.
const MAX_ROUNDS: u32 = 10_000;

/// Converges eBGP for every host prefix of the VRF graph.
pub fn converge(vrf: &VrfGraph) -> BgpOutcome {
    let mut rounds_max = 0;
    let mut converged = true;
    let mut prefixes = Vec::with_capacity(vrf.routers as usize);
    for dst in 0..vrf.routers {
        let (routes, rounds, ok) = converge_prefix(vrf, dst);
        rounds_max = rounds_max.max(rounds);
        converged &= ok;
        prefixes.push(routes);
    }
    BgpOutcome {
        rounds: rounds_max,
        converged,
        prefixes,
    }
}

/// Converges one prefix; returns the routes, rounds used, and success.
pub fn converge_prefix(vrf: &VrfGraph, dst: NodeId) -> (PrefixRoutes, u32, bool) {
    let n = vrf.graph.num_nodes() as usize;
    let origin = vrf.host_node(dst);
    // Selected state per speaker: length and the AS path *as a router set*
    // plus the vector for deterministic tie-breaks. The path excludes the
    // speaker's own router and ends at the origin.
    let mut len = vec![UNREACHABLE as u64; n];
    let mut path: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    len[origin as usize] = 0;

    let mut rounds = 0u32;
    loop {
        rounds += 1;
        let mut changed = false;
        // Snapshot: advertisements seen this round are last round's state
        // (synchronous model).
        let prev_len = len.clone();
        let prev_path = path.clone();
        for v in 0..n as u32 {
            if v == origin {
                continue;
            }
            let my_router = vrf.router_of(v);
            let mut best: Option<(u64, Vec<NodeId>)> = None;
            for &(t, _, c) in vrf.graph.out_arcs(v) {
                if prev_len[t as usize] == UNREACHABLE as u64 {
                    continue;
                }
                let c = c as u64;
                // Advertisement from t: t's path with t's router prepended.
                let t_router = vrf.router_of(t);
                if t_router == my_router || prev_path[t as usize].contains(&my_router) {
                    // Own ASN present in the advertisement: loop-prevention
                    // reject (all VRFs of a router share one ASN).
                    continue;
                }
                let cand_len = prev_len[t as usize] + c;
                let mut cand_path = Vec::with_capacity(prev_path[t as usize].len() + 1);
                cand_path.push(t_router);
                cand_path.extend_from_slice(&prev_path[t as usize]);
                let better = match &best {
                    None => true,
                    Some((bl, bp)) => cand_len < *bl || (cand_len == *bl && cand_path < *bp),
                };
                if better {
                    best = Some((cand_len, cand_path));
                }
            }
            if let Some((bl, bp)) = best {
                if bl != len[v as usize] || bp != path[v as usize] {
                    len[v as usize] = bl;
                    path[v as usize] = bp;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
        if rounds >= MAX_ROUNDS {
            return (
                PrefixRoutes {
                    dst,
                    best_len: len,
                    fib: vec![Vec::new(); n],
                },
                rounds,
                false,
            );
        }
    }

    // Multipath FIB: all loop-free neighbours whose advertisement ties the
    // selected length.
    let mut fib: Vec<Vec<(NodeId, ArcId)>> = vec![Vec::new(); n];
    for v in 0..n as u32 {
        if v == origin || len[v as usize] == UNREACHABLE as u64 {
            continue;
        }
        let my_router = vrf.router_of(v);
        for &(t, a, c) in vrf.graph.out_arcs(v) {
            if len[t as usize] == UNREACHABLE as u64 {
                continue;
            }
            let c = c as u64;
            let t_router = vrf.router_of(t);
            if t_router == my_router || path[t as usize].contains(&my_router) {
                continue;
            }
            if len[t as usize] + c == len[v as usize] {
                fib[v as usize].push((t, a));
            }
        }
    }
    (
        PrefixRoutes {
            dst,
            best_len: len,
            fib,
        },
        rounds,
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fib::{ForwardingState, RoutingScheme};
    use spineless_graph::{Graph, GraphBuilder};

    fn cycle(n: u32) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i, (i + 1) % n);
        }
        b.build()
    }

    fn k4() -> Graph {
        let mut b = GraphBuilder::new(4);
        for a in 0..4 {
            for c in (a + 1)..4 {
                b.add_edge(a, c);
            }
        }
        b.build()
    }

    /// Asserts BGP's converged FIBs equal the Dijkstra DAG FIBs for every
    /// (speaker, prefix) pair — except the destination router's own
    /// *transit* VRFs: BGP correctly rejects the out-and-back routes
    /// Dijkstra would give them (they would contain the router's own ASN),
    /// and no forwarding path ever visits them for that prefix, so the
    /// difference is unobservable.
    fn assert_matches_dijkstra(g: &Graph, k: u32) {
        let scheme = if k == 1 {
            RoutingScheme::Ecmp
        } else {
            RoutingScheme::ShortestUnion(k)
        };
        let fs = ForwardingState::build(g, scheme);
        let out = converge(&fs.vrf);
        assert!(out.converged);
        for dst in 0..g.num_nodes() {
            let pr = &out.prefixes[dst as usize];
            for v in 0..fs.vrf.graph.num_nodes() {
                if fs.vrf.router_of(v) == dst && v != fs.vrf.host_node(dst) {
                    continue;
                }
                assert_eq!(
                    pr.best_len[v as usize], fs.dist[dst as usize][v as usize] as u64,
                    "len mismatch dst={dst} v={v}"
                );
                let mut a: Vec<(NodeId, ArcId)> = pr.fib[v as usize].clone();
                let mut b: Vec<(NodeId, ArcId)> = fs.next_hops(v, dst).collect();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "fib mismatch dst={dst} v={v}");
            }
        }
    }

    #[test]
    fn bgp_equals_dijkstra_ecmp_cycle() {
        assert_matches_dijkstra(&cycle(8), 1);
    }

    #[test]
    fn bgp_equals_dijkstra_su2_cycle() {
        assert_matches_dijkstra(&cycle(8), 2);
    }

    #[test]
    fn bgp_equals_dijkstra_su2_k4() {
        assert_matches_dijkstra(&k4(), 2);
    }

    #[test]
    fn bgp_lengths_obey_theorem1() {
        // Even when loop prevention prunes walks (K = 3 on K4), the best
        // length at host VRFs must still be max(L, K) because the witness
        // path is simple.
        let g = k4();
        let fs = ForwardingState::build(&g, RoutingScheme::ShortestUnion(3));
        let out = converge(&fs.vrf);
        assert!(out.converged);
        for dst in 0..4u32 {
            for src in 0..4u32 {
                if src == dst {
                    continue;
                }
                let l = out.prefixes[dst as usize].best_len[fs.vrf.host_node(src) as usize];
                assert_eq!(l, 3, "src={src} dst={dst}");
            }
        }
    }

    #[test]
    fn loop_prevention_prunes_router_revisits_at_k3() {
        // On K4 with K = 3 and adjacent racks, Dijkstra admits the
        // router-revisiting walk R1 → R2 → R1 → R2 at min cost; BGP must
        // not install it. We check that every FIB hop strictly reduces the
        // best length and that following the FIB can never revisit the
        // packet's current router... here, simply that BGP's FIB at the
        // source host node is a subset of Dijkstra's.
        let g = k4();
        let fs = ForwardingState::build(&g, RoutingScheme::ShortestUnion(3));
        let out = converge(&fs.vrf);
        for dst in 0..4u32 {
            let pr = &out.prefixes[dst as usize];
            for v in 0..fs.vrf.graph.num_nodes() {
                for hop in &pr.fib[v as usize] {
                    assert!(
                        fs.next_hops(v, dst).any(|h| h == *hop),
                        "BGP installed a hop Dijkstra lacks at v={v} dst={dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn convergence_rounds_are_bounded_by_route_length() {
        // On a cycle the farthest route has length n/2; synchronous BGP
        // needs about that many rounds plus one to detect the fixpoint.
        let g = cycle(10);
        let fs = ForwardingState::build(&g, RoutingScheme::Ecmp);
        let out = converge(&fs.vrf);
        assert!(out.converged);
        assert!(out.rounds >= 5 && out.rounds <= 8, "rounds {}", out.rounds);
    }

    #[test]
    fn disconnected_prefixes_have_no_routes() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build();
        let fs = ForwardingState::build(&g, RoutingScheme::ShortestUnion(2));
        let out = converge(&fs.vrf);
        assert!(out.converged);
        let pr = &out.prefixes[3];
        assert_eq!(
            pr.best_len[fs.vrf.host_node(0) as usize],
            UNREACHABLE as u64
        );
        assert!(pr.fib[fs.vrf.host_node(0) as usize].is_empty());
        // But 2 reaches 3.
        assert_eq!(pr.best_len[fs.vrf.host_node(2) as usize], 2);
    }

    #[test]
    fn origin_advertises_zero_length() {
        let g = cycle(4);
        let fs = ForwardingState::build(&g, RoutingScheme::ShortestUnion(2));
        let (pr, _, ok) = converge_prefix(&fs.vrf, 2);
        assert!(ok);
        assert_eq!(pr.best_len[fs.vrf.host_node(2) as usize], 0);
        assert!(pr.fib[fs.vrf.host_node(2) as usize].is_empty());
    }
}
