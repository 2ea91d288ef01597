//! Integration tests for the §7 future-work extensions: adaptive
//! dual-plane routing, failure injection, and the extra topology families.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use spineless::graph::{bfs, spectral};
use spineless::prelude::*;
use spineless::routing::failures::{assess, FailurePlan};
use spineless::routing::{DualPlane, Forwarding};
use spineless::topo::dragonfly::Dragonfly;

/// Adaptive routing sits between the pure planes on expected path length
/// while matching the union plane's diversity exactly where it elects it.
#[test]
fn adaptive_interpolates_path_length() {
    let topo = DRing::uniform(8, 3, 32).build();
    let k = 3;
    let dual = DualPlane::by_path_count(&topo.graph, k, 4);
    let ecmp = ForwardingState::build(&topo.graph, RoutingScheme::Ecmp);
    let su = ForwardingState::build(&topo.graph, RoutingScheme::ShortestUnion(k));
    let racks = topo.racks();
    let mean = |f: &dyn Fn(u32, u32) -> f64| {
        let mut sum = 0.0;
        let mut n = 0u64;
        for &s in &racks {
            for &d in &racks {
                if s != d {
                    sum += f(s, d);
                    n += 1;
                }
            }
        }
        sum / n as f64
    };
    let h_ecmp = mean(&|s, d| ecmp.expected_route_hops(s, d).unwrap());
    let h_su = mean(&|s, d| su.expected_route_hops(s, d).unwrap());
    let h_dual = mean(&|s, d| {
        if dual.routes_over_su(s, d) {
            su.expected_route_hops(s, d).unwrap()
        } else {
            ecmp.expected_route_hops(s, d).unwrap()
        }
    });
    assert!(
        h_ecmp < h_dual && h_dual < h_su,
        "{h_ecmp} < {h_dual} < {h_su}"
    );
}

/// Adaptive flows complete through the packet simulator and the chosen
/// plane is respected per pair (detours only where SU is elected).
#[test]
fn adaptive_sim_end_to_end() {
    let topo = DRing::uniform(6, 2, 24).build();
    let dual = DualPlane::by_distance(&topo.graph, 2, 1);
    let mut sim = Simulation::new(&topo, dual.clone(), SimConfig::default(), 3);
    let n = topo.num_servers();
    for i in 0..30 {
        let (s, d) = ((i * 7) % n, (i * 13 + 5) % n);
        if s != d {
            sim.add_flow(s, d, 60_000, (i as u64) * 2_000).unwrap();
        }
    }
    let r = sim.run();
    assert_eq!(r.unfinished(), 0);
    // Plane election sanity via route sampling.
    let mut rng = SmallRng::seed_from_u64(5);
    for s in 0..topo.num_switches() {
        for d in 0..topo.num_switches() {
            if s == d {
                continue;
            }
            let route = dual.sample_route_generic(s, d, &mut rng).unwrap();
            let dist = bfs::distances(&topo.graph, s)[d as usize] as usize;
            if !dual.routes_over_su(s, d) {
                assert_eq!(route.len(), dist, "ECMP plane is shortest-only");
            }
        }
    }
}

/// More failures, monotonically more stretch (on average over the same
/// seed family) and never less diversity. Averaged over a seed family
/// rather than pinned to one seed: whether a *particular* random plan
/// stretches any path is a property of the RNG stream, not of the code
/// under test.
#[test]
fn failure_impact_grows_with_cut_fraction() {
    let topo = DRing::uniform(8, 3, 32).build();
    const SEEDS: u64 = 8;
    let family_mean = |fraction: f64| -> f64 {
        let mut sum = 0.0;
        for s in 0..SEEDS {
            let mut rng = SmallRng::seed_from_u64(11 + s);
            let plan = FailurePlan::random_links(&topo, fraction, &mut rng);
            let impact = assess(&topo, RoutingScheme::ShortestUnion(2), &plan, 40).unwrap();
            // Cutting links can only lengthen surviving routes.
            assert!(
                impact.mean_cost_after >= impact.mean_cost_before,
                "cuts shortened paths: {impact:?}"
            );
            sum += impact.mean_cost_after;
        }
        sum / SEEDS as f64
    };
    // Same seed => same shuffle, so the 5% cut set is a prefix of the 25%
    // one and per-seed (hence family-mean) stretch is monotone.
    let light = family_mean(0.05);
    let heavy = family_mean(0.25);
    assert!(
        heavy >= light,
        "more cuts must not shrink stretch: {light} vs {heavy}"
    );
    // At a 25% cut, at least one plan in the family must stretch some
    // route past the K=2 cost floor.
    assert!(
        heavy > 2.0,
        "25% cuts must stretch paths somewhere in the family: {heavy}"
    );
}

/// A degraded topology still runs the full simulator pipeline.
#[test]
fn degraded_topology_simulates() {
    let topo = DRing::uniform(6, 3, 32).build();
    let mut rng = SmallRng::seed_from_u64(13);
    let plan = FailurePlan::random_links(&topo, 0.15, &mut rng);
    let degraded = plan.apply(&topo).unwrap();
    let fs = ForwardingState::build(&degraded.graph, RoutingScheme::ShortestUnion(2));
    let mut sim = Simulation::new(&degraded, fs, SimConfig::default(), 17);
    let n = degraded.num_servers();
    let mut added = 0;
    for i in 0..40 {
        let (s, d) = ((i * 3) % n, (i * 17 + 2) % n);
        if s != d && sim.add_flow(s, d, 30_000, (i as u64) * 1_500).is_ok() {
            added += 1;
        }
    }
    assert!(added > 30, "most pairs stay connected at 15% cuts");
    let r = sim.run();
    assert_eq!(r.unfinished(), 0);
}

/// The expander-family claim of §5.1: Xpander matches the RRG's spectral
/// gap and both crush the DRing's, with Dragonfly's low diameter alongside.
#[test]
fn topology_family_panorama() {
    let mut rng = SmallRng::seed_from_u64(19);
    // A longer ring exposes the DRing's poor expansion (gap shrinks with
    // ring length); the expanders keep theirs at matched size and degree.
    let dring = DRing::uniform(18, 2, 24).build(); // 36 racks, degree 8
    let rrg = Rrg::uniform(36, 8, 4, 12, 7).build();
    let xp = Xpander::new(8, 4, 4, 12, 7).build(); // 36 switches, degree 8
    let g_dring = spectral::spectral_gap(&dring.graph, 300, &mut rng);
    let g_rrg = spectral::spectral_gap(&rrg.graph, 300, &mut rng);
    let g_xp = spectral::spectral_gap(&xp.graph, 300, &mut rng);
    assert!(g_rrg > g_dring + 0.1, "rrg {g_rrg} vs dring {g_dring}");
    assert!(g_xp > g_dring + 0.1, "xpander {g_xp} vs dring {g_dring}");
    assert!(
        (g_xp - g_rrg).abs() < 0.25,
        "expanders comparable: {g_xp} vs {g_rrg}"
    );
    // Dragonfly: diameter <= 3 by construction, much denser local links.
    let df = Dragonfly::balanced(4, 2, 4, 16).build();
    assert!(bfs::diameter(&df.graph).unwrap() <= 3);
    assert!(bfs::diameter(&dring.graph).unwrap() >= 3);
}

/// Shortest-Union(2) works unmodified on Dragonfly, Slim Fly and Xpander —
/// the §7 expectation that flat low-diameter networks benefit from the
/// same oblivious scheme.
#[test]
fn su2_runs_on_other_flat_families() {
    for topo in [
        Dragonfly::balanced(3, 2, 4, 16).build(),
        spineless::topo::slimfly::SlimFly::new(5, 3, 11).build(),
        Xpander::new(6, 3, 4, 12, 3).build(),
    ] {
        let fs = ForwardingState::build(&topo.graph, RoutingScheme::ShortestUnion(2));
        let mut sim = Simulation::new(&topo, fs, SimConfig::default(), 23);
        let n = topo.num_servers();
        for i in 0..20 {
            let (s, d) = ((i * 5) % n, (i * 9 + 3) % n);
            if s != d {
                sim.add_flow(s, d, 40_000, (i as u64) * 2_000).unwrap();
            }
        }
        let r = sim.run();
        assert_eq!(r.unfinished(), 0, "{}", topo.name);
    }
}
