//! Property-based tests for the fast routing-state pipeline: the parallel
//! bucket-queue label build against the serial heap-Dijkstra reference,
//! and failure reconvergence from the baseline against the dense rebuild
//! of the degraded topology, on random DRing / RRG / leaf-spine instances.

use proptest::prelude::*;
use spineless::prelude::*;
use spineless::routing::failures::FailurePlan;

/// Strategy: one of the paper's three topology families at a small random
/// size, plus a routing scheme (ECMP on the leaf-spine, Shortest-Union(K)
/// on the flat topologies, as the evaluation pairs them).
fn topo_and_scheme() -> impl Strategy<Value = (Topology, RoutingScheme)> {
    (0u8..3, any::<u64>(), 2u32..=3).prop_map(|(kind, seed, k)| {
        let topo = match kind {
            0 => DRing::uniform(5 + (seed % 3) as u32, 2 + (seed % 2) as u32, 24).build(),
            1 => Rrg::uniform(12 + (seed % 8) as u32, 5, 4, 10, seed).build(),
            _ => LeafSpine::new(4 + (seed % 4) as u32, 3).build(),
        };
        let scheme = if kind == 2 {
            RoutingScheme::Ecmp
        } else {
            RoutingScheme::ShortestUnion(k)
        };
        (topo, scheme)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The parallel bucket-queue label build is bit-identical to the serial
    /// heap-Dijkstra reference on every topology family.
    #[test]
    fn fast_build_matches_reference((topo, scheme) in topo_and_scheme()) {
        let fast = ForwardingState::build(&topo.graph, scheme);
        let reference = ForwardingState::build_reference(&topo.graph, scheme);
        prop_assert_eq!(fast, reference);
    }

    /// Failure recompute from the baseline (`ForwardingState::masked`)
    /// keeps the fabric's arc ids and, under the dense → original arc map,
    /// equals `ForwardingState::build` of the degraded topology — labels
    /// and derived next hops — for random link-cut/switch-kill plans under
    /// ECMP, SU(2) and SU(3).
    #[test]
    fn incremental_recompute_matches_full_rebuild(
        (topo, _) in topo_and_scheme(),
        k in 1u32..=3,
        seed in any::<u64>(),
        fraction in 0.0f64..0.25,
        kills in 0u32..=2,
    ) {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let scheme = if k == 1 {
            RoutingScheme::Ecmp
        } else {
            RoutingScheme::ShortestUnion(k)
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FailurePlan::random_links(&topo, fraction, &mut rng);
        plan.failed_switches =
            FailurePlan::random_switches(&topo, kills, &mut rng).failed_switches;
        let baseline = ForwardingState::build(&topo.graph, scheme);
        let rebuilt = baseline.masked(&plan.dead_edges(&topo));

        // The oracle: a dense rebuild over the degraded topology, whose
        // arcs are the survivors' renumbered in order.
        let dense = ForwardingState::build(&plan.apply(&topo).unwrap().graph, scheme);
        let g = &topo.graph;
        let dead_edge = |e: u32| {
            let (a, b) = g.edge(e);
            plan.failed_links.contains(&e)
                || plan.failed_switches.contains(&a)
                || plan.failed_switches.contains(&b)
        };
        let arcs_per_edge = rebuilt.vrf.graph.num_arcs() / g.num_edges();
        let orig: Vec<u32> = (0..rebuilt.vrf.graph.num_arcs())
            .filter(|&a| !dead_edge(a / arcs_per_edge))
            .collect();
        prop_assert_eq!(orig.len() as u32, dense.vrf.graph.num_arcs());
        for (a, &o) in orig.iter().enumerate() {
            prop_assert_eq!(dense.vrf.graph.arc(a as u32), rebuilt.vrf.graph.arc(o));
        }
        prop_assert_eq!(&rebuilt.dist, &dense.dist);
        for d in 0..g.num_nodes() {
            for u in 0..dense.vrf.graph.num_nodes() {
                let mapped: Vec<(u32, u32)> =
                    dense.next_hops(u, d).map(|(v, a)| (v, orig[a as usize])).collect();
                let derived: Vec<(u32, u32)> = rebuilt.next_hops(u, d).collect();
                prop_assert_eq!(derived, mapped, "dst {} vnode {}", d, u);
            }
        }
    }
}
