//! Property-based tests for the graph substrate and the VRF construction,
//! over randomly generated connected graphs.

use proptest::prelude::*;
use spineless::graph::{bfs, cuts, flow, paths, Graph, GraphBuilder};
use spineless::routing::VrfGraph;

/// Strategy: a connected graph on 4..=14 nodes — a random spanning tree
/// plus random extra edges (no parallels for simplicity here).
fn connected_graph() -> impl Strategy<Value = Graph> {
    (4u32..=14, any::<u64>()).prop_map(|(n, seed)| {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        // Random spanning tree: attach node i to a random earlier node.
        for i in 1..n {
            b.add_edge(i, rng.gen_range(0..i));
        }
        // Extra edges with probability 0.3, skipping existing pairs lazily
        // (duplicates are fine for these properties, but keep it simple).
        for a in 0..n {
            for c in (a + 1)..n {
                if rng.gen_bool(0.3) {
                    b.add_edge(a, c);
                }
            }
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BFS distances obey the triangle inequality through any edge.
    #[test]
    fn bfs_distance_is_1_lipschitz_on_edges(g in connected_graph()) {
        let d = bfs::distances(&g, 0);
        for &(a, b) in g.edges() {
            let da = d[a as usize] as i64;
            let db = d[b as usize] as i64;
            prop_assert!((da - db).abs() <= 1, "edge ({a},{b}): {da} vs {db}");
        }
    }

    /// Every shortest-path-DAG next hop decreases distance by exactly 1,
    /// and every non-destination node has at least one.
    #[test]
    fn sp_dag_is_well_formed(g in connected_graph()) {
        let dst = g.num_nodes() - 1;
        let dag = bfs::SpDag::towards(&g, dst);
        for v in 0..g.num_nodes() {
            if v == dst {
                prop_assert!(dag.next_hops[v as usize].is_empty());
                continue;
            }
            prop_assert!(!dag.next_hops[v as usize].is_empty(), "node {v}");
            for &(w, e) in &dag.next_hops[v as usize] {
                prop_assert_eq!(dag.dist[w as usize] + 1, dag.dist[v as usize]);
                let (x, y) = g.edge(e);
                prop_assert!((x, y) == (v, w) || (x, y) == (w, v));
            }
        }
    }

    /// Shortest-path count >= 1 for all pairs of a connected graph, and
    /// equals the number of enumerated shortest paths when under the cap.
    #[test]
    fn path_counting_matches_enumeration(g in connected_graph()) {
        let dst = 0;
        let dag = bfs::SpDag::towards(&g, dst);
        for src in 1..g.num_nodes() {
            let count = dag.count_paths(src);
            prop_assert!(count >= 1);
            if count <= 200 {
                let listed = paths::all_shortest_paths(&g, src, dst, 500);
                prop_assert_eq!(listed.len() as u64, count, "pair ({}, 0)", src);
            }
        }
    }

    /// Edge-disjoint path count is bounded by both endpoint degrees and is
    /// at least 1 on a connected graph; node-disjoint <= edge-disjoint.
    #[test]
    fn mengers_bounds(g in connected_graph()) {
        let (s, t) = (0, g.num_nodes() - 1);
        let ed = flow::edge_disjoint_paths(&g, s, t);
        let nd = flow::node_disjoint_paths(&g, s, t);
        prop_assert!(ed >= 1);
        prop_assert!(ed <= g.degree(s).min(g.degree(t)));
        prop_assert!(nd <= ed);
    }

    /// The bisection estimator returns a balanced partition whose cut it
    /// reports faithfully.
    #[test]
    fn bisection_estimate_is_consistent(g in connected_graph()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let (cut, side) = cuts::estimate_bisection(&g, 4, &mut rng);
        prop_assert_eq!(cut, cuts::cut_size(&g, &side));
        let a = side.iter().filter(|&&s| s).count();
        let n = g.num_nodes() as usize;
        prop_assert!(a == n / 2 || a == n - n / 2);
    }

    /// Theorem 1 on arbitrary connected graphs: VRF host distance is
    /// max(L, K) for K in 1..=3.
    #[test]
    fn theorem1_holds_on_random_graphs(g in connected_graph(), k in 1u32..=3) {
        let vrf = VrfGraph::build(&g, k);
        let n = g.num_nodes();
        for s in 0..n {
            let d = bfs::distances(&g, s);
            for t in 0..n {
                if s == t {
                    continue;
                }
                let l = d[t as usize] as u64;
                prop_assert_eq!(vrf.host_distance(s, t), Some(l.max(k as u64)));
            }
        }
    }

    /// Bucket-queue shortest paths equal heap Dijkstra, and the next hops
    /// derived from the labels over the CSR adjacency equal the nested
    /// DAG, on VRF expansions of random graphs — the small-integer-cost
    /// regime (arcs cost 1..=K) Dial's algorithm targets.
    #[test]
    fn bucket_queue_and_csr_match_references(g in connected_graph(), k in 1u32..=3) {
        use spineless::graph::DialScratch;
        let vrf = VrfGraph::build(&g, k);
        let dg = &vrf.graph;
        let mut scratch = DialScratch::for_graph(dg);
        for dst in 0..dg.num_nodes() {
            prop_assert_eq!(dg.bucket_dijkstra_to(dst, &mut scratch), dg.dijkstra_to(dst));
        }
        prop_assert_eq!(dg.bucket_dijkstra_from(0, &mut scratch), dg.dijkstra_from(0));
        for r in 0..g.num_nodes() {
            let nested = vrf.dag_towards(r);
            let dist = dg.bucket_dijkstra_to(vrf.host_node(r), &mut scratch);
            for u in 0..dg.num_nodes() {
                let derived: Vec<_> = dg.next_hops(&dist, u).collect();
                prop_assert_eq!(&derived, &nested.next_hops[u as usize]);
            }
        }
    }

    /// The flat all-pairs distance matrix matches per-source BFS.
    #[test]
    fn distance_matrix_rows_match_bfs(g in connected_graph()) {
        let m = bfs::all_pairs_distances(&g);
        for v in 0..g.num_nodes() {
            let d = bfs::distances(&g, v);
            prop_assert_eq!(m.row(v), &d[..]);
        }
    }

    /// Shortest-Union(2) router paths are valid simple paths whose length
    /// is either the pair distance or <= 2, and include every shortest
    /// path (when enumerable).
    #[test]
    fn su2_path_set_shape(g in connected_graph()) {
        let vrf = VrfGraph::build(&g, 2);
        let d = bfs::all_pairs_distances(&g);
        for s in 0..g.num_nodes() {
            for t in 0..g.num_nodes() {
                if s == t {
                    continue;
                }
                let l = d[s as usize][t as usize];
                let ps = vrf.router_paths(s, t, 500);
                prop_assert!(!ps.is_empty());
                for p in &ps {
                    prop_assert!(paths::is_simple_path(&g, p, s, t), "{p:?}");
                    let hops = (p.len() - 1) as u32;
                    prop_assert!(hops == l || hops <= 2, "hops {hops}, dist {l}");
                }
            }
        }
    }
}
