//! The VRF-graph construction of paper §4.
//!
//! Each physical router `R` is partitioned into `K` VRFs — `(VRF 1, R)`
//! through `(VRF K, R)` — with host interfaces in `VRF K`. For every
//! *directed* physical link `R1 → R2` the following virtual connections
//! exist (costs realized as BGP AS-path prepending):
//!
//! 1. `(VRF K, R1) → (VRF i, R2)` with cost `i`, for every `i ≤ K`
//!    (traffic leaves the host VRF by dropping to transit level `i`,
//!    prepaying `i`);
//! 2. `(VRF i, R1) → (VRF i+1, R2)` with cost 1, for `1 ≤ i < K`
//!    (each transit hop climbs one level, arriving at the destination's
//!    host VRF on the final hop);
//! 3. `(VRF 1, R1) → (VRF 1, R2)` with cost 1 (level-1 cruising for paths
//!    longer than `K`).
//!
//! **Theorem 1.** The VRF-graph distance from `(VRF K, R1)` to
//! `(VRF K, R2)` is `max(L, K)`, where `L` is the physical distance.
//!
//! *Why this rule set:* a physical path of `ℓ ≤ K` hops is realized by
//! entering level `K − ℓ + 1` (cost `K − ℓ + 1`) and ascending `ℓ − 1`
//! times — total exactly `K`; a path of `ℓ ≥ K` hops enters level 1,
//! cruises `ℓ − K` hops and ascends — total exactly `ℓ`. Conversely, any
//! walk that enters transit at level `i` needs at least `K − i` more cost
//! to climb back to level `K`, so every host-VRF-to-host-VRF walk costs at
//! least `K`, and every arc costs ≥ 1 so it also costs at least `L`.
//! Minimum-cost VRF paths therefore correspond exactly to the
//! Shortest-Union(K) physical path set. (The paper's printed rule 2
//! descends, which contradicts its own proof's witness path; we implement
//! the ascent reconstruction and verify exhaustively.)

use spineless_graph::digraph::{ArcId, DiGraph, DiGraphBuilder, WeightedSpDag};
use spineless_graph::{EdgeId, Graph, NodeId, UNREACHABLE};

/// The expanded VRF graph of a physical topology, for a given `K`.
///
/// VRF-graph node ids are `router * k + (level - 1)` for levels `1..=K`.
/// With `K = 1` the construction degenerates to the physical graph with
/// unit costs — i.e. plain shortest-path ECMP — which is how the rest of
/// the workspace treats ECMP and Shortest-Union uniformly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VrfGraph {
    /// Number of VRFs per router (the `K` of Shortest-Union(K)).
    pub k: u32,
    /// Number of physical routers.
    pub routers: u32,
    /// The directed, weighted VRF graph.
    pub graph: DiGraph,
    /// VRF arcs per physical edge: [`VrfGraph::build`] emits one block of
    /// this many arcs per edge, in edge order, so an arc's edge is its id
    /// divided by this (no per-arc table).
    arcs_per_edge: u32,
}

impl VrfGraph {
    /// VRF-graph node for `(VRF level, router)`; `level` is 1-based.
    #[inline]
    pub fn node(&self, router: NodeId, level: u32) -> NodeId {
        debug_assert!(level >= 1 && level <= self.k);
        router * self.k + (level - 1)
    }

    /// The host VRF node `(VRF K, router)` where traffic originates and
    /// terminates.
    #[inline]
    pub fn host_node(&self, router: NodeId) -> NodeId {
        self.node(router, self.k)
    }

    /// Router of a VRF-graph node.
    #[inline]
    pub fn router_of(&self, vnode: NodeId) -> NodeId {
        vnode / self.k
    }

    /// VRF level (1-based) of a VRF-graph node.
    #[inline]
    pub fn level_of(&self, vnode: NodeId) -> u32 {
        vnode % self.k + 1
    }

    /// Physical edge traversed by VRF arc `a`.
    #[inline]
    pub fn edge_of_arc(&self, a: ArcId) -> EdgeId {
        a / self.arcs_per_edge
    }

    /// Builds the VRF graph for physical topology `phys` with `k ≥ 1` VRFs.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn build(phys: &Graph, k: u32) -> VrfGraph {
        assert!(k >= 1, "K must be at least 1");
        let routers = phys.num_nodes();
        let mut b = DiGraphBuilder::new(routers * k);
        let node = |r: NodeId, level: u32| r * k + (level - 1);
        // Each undirected physical edge yields the rules in both directions.
        for &(x, y) in phys.edges() {
            for (r1, r2) in [(x, y), (y, x)] {
                if k == 1 {
                    // Degenerate: a single unit-cost arc (plain ECMP).
                    b.add_arc(node(r1, 1), node(r2, 1), 1);
                    continue;
                }
                // Rule 1: host VRF drops to transit level i, cost i.
                for i in 1..=k {
                    b.add_arc(node(r1, k), node(r2, i), i);
                }
                // Rule 2: transit climbs one level per hop, cost 1.
                for i in 1..k {
                    b.add_arc(node(r1, i), node(r2, i + 1), 1);
                }
                // Rule 3: level-1 cruising, cost 1.
                b.add_arc(node(r1, 1), node(r2, 1), 1);
            }
        }
        // One direction carries rules 1–3 (`K + (K − 1) + 1` arcs), or the
        // single unit arc when `K = 1`.
        let arcs_per_edge = 2 * if k == 1 { 1 } else { 2 * k };
        let graph = b.build();
        debug_assert_eq!(
            graph.num_arcs() as u64,
            phys.num_edges() as u64 * arcs_per_edge as u64,
            "arc block per edge out of sync"
        );
        VrfGraph {
            k,
            routers,
            graph,
            arcs_per_edge,
        }
    }

    /// The same VRF graph with every arc of a dead physical edge
    /// (`dead_edge[e]`) left out of its adjacency ([`DiGraph::masked`]):
    /// arc ids, [`VrfGraph::edge_of_arc`] and node ids stay the intact
    /// fabric's.
    ///
    /// # Panics
    ///
    /// Panics when `dead_edge` does not have one entry per physical edge
    /// of the topology this graph was built from.
    pub fn masked(&self, dead_edge: &[bool]) -> VrfGraph {
        assert_eq!(
            dead_edge.len() as u64 * self.arcs_per_edge as u64,
            self.graph.num_arcs() as u64,
            "dead-edge mask belongs to a different topology"
        );
        VrfGraph {
            graph: self
                .graph
                .masked(|a| dead_edge[self.edge_of_arc(a) as usize]),
            ..*self
        }
    }

    /// VRF-graph distance from `(VRF K, src)` to `(VRF K, dst)`; by
    /// Theorem 1 this equals `max(physical distance, K)`. Returns `None`
    /// if unreachable.
    pub fn host_distance(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        if src == dst {
            return Some(0);
        }
        let d = self.graph.dijkstra_to(self.host_node(dst));
        let v = d[self.host_node(src) as usize];
        (v != UNREACHABLE).then_some(v as u64)
    }

    /// The min-cost forwarding DAG towards `(VRF K, dst)` — the FIBs every
    /// VRF speaker installs for destination prefix `dst` once BGP converges.
    ///
    /// Nested layout, heap Dijkstra — the reference that the next hops
    /// [`ForwardingState::next_hops`](crate::ForwardingState::next_hops)
    /// derives from distance labels are pinned against.
    pub fn dag_towards(&self, dst: NodeId) -> WeightedSpDag {
        WeightedSpDag::towards(&self.graph, self.host_node(dst))
    }

    /// All Shortest-Union(K) *router-level* paths from `src` to `dst`, up
    /// to `cap`, filtered to simple paths (BGP's AS-path loop prevention
    /// guarantees router-level simplicity; for `K ≤ 2` the min-cost walks
    /// are simple automatically).
    pub fn router_paths(&self, src: NodeId, dst: NodeId, cap: usize) -> Vec<Vec<NodeId>> {
        let dag = self.dag_towards(dst);
        let vpaths = dag.all_paths(self.host_node(src), cap * 4);
        let mut out: Vec<Vec<NodeId>> = Vec::new();
        for vp in vpaths {
            let rp: Vec<NodeId> = vp.iter().map(|&v| self.router_of(v)).collect();
            let mut seen = vec![false; self.routers as usize];
            if rp
                .iter()
                .all(|&r| !std::mem::replace(&mut seen[r as usize], true))
                && !out.contains(&rp)
            {
                out.push(rp);
                if out.len() >= cap {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spineless_graph::bfs;
    use spineless_graph::paths::shortest_union_paths;
    use spineless_graph::DialScratch;
    use spineless_graph::GraphBuilder;

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

    #[test]
    fn node_level_router_roundtrip() {
        let g = cycle(5);
        let v = VrfGraph::build(&g, 3);
        for r in 0..5 {
            for level in 1..=3 {
                let n = v.node(r, level);
                assert_eq!(v.router_of(n), r);
                assert_eq!(v.level_of(n), level);
            }
            assert_eq!(v.level_of(v.host_node(r)), 3);
        }
    }

    #[test]
    fn theorem1_exhaustive_on_cycle() {
        // Theorem 1: host-VRF distance = max(L, K).
        let g = cycle(8);
        let phys = bfs::all_pairs_distances(&g);
        for k in 1..=4u32 {
            let v = VrfGraph::build(&g, k);
            for s in 0..8u32 {
                for t in 0..8u32 {
                    if s == t {
                        continue;
                    }
                    let l = phys[s as usize][t as usize] as u64;
                    let got = v.host_distance(s, t).unwrap();
                    assert_eq!(got, l.max(k as u64), "k={k} s={s} t={t}");
                }
            }
        }
    }

    #[test]
    fn theorem1_on_k4() {
        let g = k4();
        for k in 1..=3u32 {
            let v = VrfGraph::build(&g, k);
            for s in 0..4u32 {
                for t in 0..4u32 {
                    if s != t {
                        // L = 1 everywhere in K4.
                        assert_eq!(v.host_distance(s, t).unwrap(), (k as u64).max(1));
                    }
                }
            }
        }
    }

    #[test]
    fn k1_reduces_to_physical_shortest_paths() {
        let g = cycle(6);
        let v = VrfGraph::build(&g, 1);
        assert_eq!(v.graph.num_nodes(), 6);
        let d = bfs::distances(&g, 3);
        for s in 0..6u32 {
            assert_eq!(v.host_distance(s, 3).unwrap(), d[s as usize] as u64);
        }
    }

    #[test]
    fn su2_router_paths_match_direct_enumeration() {
        // The min-cost VRF paths projected to routers must equal the
        // Shortest-Union(2) set computed by direct graph enumeration.
        let g = k4();
        let v = VrfGraph::build(&g, 2);
        for s in 0..4u32 {
            for t in 0..4u32 {
                if s == t {
                    continue;
                }
                let mut via_vrf = v.router_paths(s, t, 1000);
                let mut direct = shortest_union_paths(&g, s, t, 2, 1000);
                via_vrf.sort();
                direct.sort();
                assert_eq!(via_vrf, direct, "pair ({s},{t})");
            }
        }
    }

    #[test]
    fn su2_on_cycle_includes_only_expected_paths() {
        let g = cycle(6);
        let v = VrfGraph::build(&g, 2);
        // Adjacent pair (0,1): shortest path [0,1]; no other path of
        // length <= 2 exists on a 6-cycle, so SU(2) = {[0,1]}.
        assert_eq!(v.router_paths(0, 1, 10), vec![vec![0, 1]]);
        // Pair (0,2): one shortest path [0,1,2] of length 2 — included;
        // the long way round has length 4 > K.
        assert_eq!(v.router_paths(0, 2, 10), vec![vec![0, 1, 2]]);
        // Opposite pair (0,3): both 3-hop shortest paths.
        let mut ps = v.router_paths(0, 3, 10);
        ps.sort();
        assert_eq!(ps, vec![vec![0, 1, 2, 3], vec![0, 5, 4, 3]]);
    }

    #[test]
    fn dag_next_hops_nonempty_on_connected_graph() {
        let g = k4();
        let v = VrfGraph::build(&g, 2);
        let dag = v.dag_towards(3);
        // Every non-destination host node must have next hops.
        for r in 0..3u32 {
            assert!(
                !dag.next_hops[v.host_node(r) as usize].is_empty(),
                "router {r}"
            );
        }
    }

    #[test]
    fn csr_dag_matches_nested_dag_on_vrf_graphs() {
        // The next hops derived from Dial labels over the CSR adjacency
        // equal the nested heap-Dijkstra DAG, entry for entry.
        for (g, kmax) in [(cycle(8), 4u32), (k4(), 3u32)] {
            for k in 1..=kmax {
                let v = VrfGraph::build(&g, k);
                let mut scratch = DialScratch::for_graph(&v.graph);
                for d in 0..g.num_nodes() {
                    let nested = v.dag_towards(d);
                    let dist = v.graph.bucket_dijkstra_to(v.host_node(d), &mut scratch);
                    assert_eq!(dist, nested.dist, "k={k} d={d}");
                    for u in 0..v.graph.num_nodes() {
                        let derived: Vec<_> = v.graph.next_hops(&dist, u).collect();
                        assert_eq!(derived, nested.next_hops[u as usize], "k={k} d={d} u={u}");
                    }
                }
            }
        }
    }

    #[test]
    fn arc_edges_map_to_real_cables() {
        let g = cycle(4);
        let v = VrfGraph::build(&g, 2);
        for a in 0..v.graph.num_arcs() {
            let (s, t, _) = v.graph.arc(a);
            let e = v.edge_of_arc(a);
            let (x, y) = g.edge(e);
            let (rs, rt) = (v.router_of(s), v.router_of(t));
            assert!(
                (rs == x && rt == y) || (rs == y && rt == x),
                "arc {a} claims edge {e}"
            );
        }
    }

    #[test]
    fn arc_count_matches_rule_set() {
        // Per directed physical link with K >= 2: K (rule 1) + K-1 (rule 2)
        // + 1 (rule 3) = 2K arcs. Cycle(4) has 8 directed links.
        let g = cycle(4);
        for k in 2..=4u32 {
            let v = VrfGraph::build(&g, k);
            assert_eq!(v.graph.num_arcs(), 8 * 2 * k);
        }
        assert_eq!(VrfGraph::build(&g, 1).graph.num_arcs(), 8);
    }

    #[test]
    fn host_distance_identity_and_unreachable() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        let g = b.build();
        let v = VrfGraph::build(&g, 2);
        assert_eq!(v.host_distance(0, 0), Some(0));
        assert_eq!(v.host_distance(0, 2), None);
    }
}
