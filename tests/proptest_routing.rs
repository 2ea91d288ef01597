//! Property-based tests for the fast routing-state pipeline: the parallel
//! bucket-queue/CSR build against the serial heap-Dijkstra reference, and
//! incremental failure recompute against the from-scratch masked build and
//! the dense rebuild of the degraded topology, on random DRing / RRG /
//! leaf-spine instances.

use proptest::prelude::*;
use spineless::prelude::*;
use spineless::routing::failures::{incremental_rebuild, masked_build, FailurePlan};

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

    /// The parallel bucket-queue CSR build is bit-identical to the serial
    /// heap-Dijkstra reference on every topology family.
    #[test]
    fn fast_build_matches_reference((topo, scheme) in topo_and_scheme()) {
        let fast = ForwardingState::build(&topo.graph, scheme);
        let reference = ForwardingState::build_reference(&topo.graph, scheme);
        prop_assert_eq!(fast, reference);
    }

    /// Incremental failure recompute keeps the fabric's arc ids and equals
    /// both the from-scratch masked build and, under the dense → original
    /// arc map, `ForwardingState::build` of the degraded topology, for
    /// random link-cut/switch-kill plans under ECMP, SU(2) and SU(3).
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
        let inc = incremental_rebuild(&baseline, &topo, &plan);
        prop_assert_eq!(&inc, &masked_build(&topo, scheme, &plan));

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
        let arcs_per_edge = inc.vrf.graph.num_arcs() / g.num_edges();
        let orig: Vec<u32> = (0..inc.vrf.graph.num_arcs())
            .filter(|&a| !dead_edge(a / arcs_per_edge))
            .collect();
        prop_assert_eq!(orig.len() as u32, dense.vrf.graph.num_arcs());
        for (a, &o) in orig.iter().enumerate() {
            prop_assert_eq!(dense.vrf.graph.arc(a as u32), inc.vrf.graph.arc(o));
        }
        for d in 0..g.num_nodes() as usize {
            let (i, f) = (&inc.dags[d], &dense.dags[d]);
            prop_assert_eq!(&i.dist, &f.dist, "dst {}", d);
            for u in 0..f.num_nodes() {
                let mapped: Vec<u32> = f.next_hops(u).iter().map(|&a| orig[a as usize]).collect();
                prop_assert_eq!(i.next_hops(u), &mapped[..], "dst {} vnode {}", d, u);
            }
        }
    }
}
