//! Cross-crate integration tests pinning the paper's claims end-to-end.
//!
//! Each test exercises the full pipeline (topology → routing → workload →
//! simulator/fluid solver) the way the figure harnesses do, at sizes that
//! keep the suite fast.

use spineless::core::fct::{generate_workload, run_cell, TmKind};
use spineless::core::throughput::run_fig5_panel;
use spineless::core::topos::{EvalTopos, Scale};
use spineless::core::udf::{default_sweep, udf_table};
use spineless::graph::bfs;
use spineless::prelude::*;
use spineless::routing::bgp;

/// §3.1: UDF of every leaf-spine is 2, measured on real constructions.
#[test]
fn claim_udf_is_two() {
    for row in udf_table(&default_sweep(), 5) {
        assert!((row.udf_measured - 2.0).abs() < 0.03, "{row:?}");
    }
}

/// §4 Theorem 1 on the actual evaluation topologies.
#[test]
fn claim_theorem1_on_eval_topologies() {
    let topos = EvalTopos::build(Scale::Small, 3);
    for topo in [&topos.leafspine, &topos.dring, &topos.rrg] {
        let phys = bfs::all_pairs_distances(&topo.graph);
        let vrf = VrfGraph::build(&topo.graph, 2);
        for s in 0..topo.num_switches() {
            for t in 0..topo.num_switches() {
                if s == t {
                    continue;
                }
                let l = phys[s as usize][t as usize] as u64;
                assert_eq!(
                    vrf.host_distance(s, t),
                    Some(l.max(2)),
                    "{} pair ({s},{t})",
                    topo.name
                );
            }
        }
    }
}

/// §4: distributed BGP over the VRF graph reproduces Shortest-Union(2)
/// forwarding state on the DRing.
#[test]
fn claim_bgp_realizes_shortest_union() {
    let topo = DRing::uniform(6, 3, 32).build();
    let fs = ForwardingState::build(&topo.graph, RoutingScheme::ShortestUnion(2));
    let out = bgp::converge(&fs.vrf);
    assert!(out.converged);
    for dst in 0..topo.num_switches() {
        let pr = &out.prefixes[dst as usize];
        for v in 0..fs.vrf.graph.num_nodes() {
            if fs.vrf.router_of(v) == dst && v != fs.vrf.host_node(dst) {
                continue;
            }
            let mut a = pr.fib[v as usize].clone();
            let mut b: Vec<_> = fs.next_hops(v, dst).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "dst {dst} vnode {v}");
        }
    }
}

/// §6.1: flat topologies beat the leaf-spine's FCT tail on skewed traffic,
/// through the full packet simulator. The claim is statistical, so it is
/// pinned on the *mean* tail over a small seed family rather than one
/// workload draw — a single draw's winner is a property of the RNG
/// stream, not of the topologies. Load is 0.4: at lower loads the small
/// evaluation scale is underloaded and the tail is set by isolated incast
/// timeouts rather than the skew-driven congestion the claim is about.
#[test]
fn claim_flat_beats_leafspine_on_skewed_fct() {
    let topos = EvalTopos::build(Scale::Small, 7);
    let window = 1_500_000;
    let offered = topos.offered_bytes(0.4, window, 10.0);
    let mut ls_p99 = 0.0;
    let mut dr_p99 = 0.0;
    const SEEDS: u64 = 4;
    for seed in 9..9 + SEEDS {
        let ls_flows = generate_workload(TmKind::FbSkewed, &topos.leafspine, offered, window, seed);
        let dr_flows = generate_workload(TmKind::FbSkewed, &topos.dring, offered, window, seed);
        ls_p99 += run_cell(
            &topos.leafspine,
            RoutingScheme::Ecmp,
            &ls_flows,
            "FB skewed",
            SimConfig::default(),
            seed,
        )
        .p99_ms;
        dr_p99 += run_cell(
            &topos.dring,
            RoutingScheme::ShortestUnion(2),
            &dr_flows,
            "FB skewed",
            SimConfig::default(),
            seed,
        )
        .p99_ms;
    }
    let (ls_p99, dr_p99) = (ls_p99 / SEEDS as f64, dr_p99 / SEEDS as f64);
    assert!(
        dr_p99 < ls_p99,
        "DRing mean p99 {} should beat leaf-spine {}",
        dr_p99,
        ls_p99
    );
}

/// §6.1: ECMP on a flat network collapses for rack-to-rack between
/// adjacent racks; Shortest-Union(2) repairs it.
#[test]
fn claim_su2_fixes_rack_to_rack() {
    // Deterministic worst case (no Pareto variance): every server of rack
    // 0 sends fixed-size flows to servers of the *adjacent* rack. All of
    // it hashes onto the single shortest path under ECMP (2.4× overload of
    // one 10G link); Shortest-Union(2) spreads it over the 2-hop detours.
    let topos = EvalTopos::build(Scale::Small, 11);
    let dring = &topos.dring;
    // Racks 0 and 2 are adjacent in the small DRing (supernodes 0 and 1).
    assert!(dring.graph.has_edge(0, 2));
    let src_servers: Vec<u32> = dring.servers_on(0).collect();
    let dst_servers: Vec<u32> = dring.servers_on(2).collect();
    // Sustained 1.2× overload of one 10 Gbps link: 48 flows × 125 KB over
    // 4 ms = 12 Gbps. ECMP funnels all of it onto the single shortest
    // path; SU(2) spreads it over 5 disjoint paths (≈ 2.4 Gbps each).
    let window = 4_000_000u64;
    let mut flows = spineless::workload::FlowSet {
        flows: Vec::new(),
        window_ns: window,
    };
    for (i, &s) in src_servers.iter().enumerate() {
        for k in 0..4u64 {
            let d = dst_servers[(i + k as usize) % dst_servers.len()];
            flows.flows.push(spineless::workload::FlowSpec {
                src: s,
                dst: d,
                bytes: 125_000,
                start_ns: (i as u64 * 77_773 + k * 919_393) % window,
            });
        }
    }
    let ecmp = run_cell(
        dring,
        RoutingScheme::Ecmp,
        &flows,
        "R2R",
        SimConfig::default(),
        13,
    );
    let su2 = run_cell(
        dring,
        RoutingScheme::ShortestUnion(2),
        &flows,
        "R2R",
        SimConfig::default(),
        13,
    );
    assert!(
        su2.p99_ms < ecmp.p99_ms / 1.5,
        "SU(2) p99 {} should clearly beat ECMP {} on adjacent-rack R2R",
        su2.p99_ms,
        ecmp.p99_ms
    );
    assert!(
        su2.mean_ms < ecmp.mean_ms,
        "mean too: {} vs {}",
        su2.mean_ms,
        ecmp.mean_ms
    );
}

/// §6.2: the skewed corner of the Fig. 5 heatmap favours the DRing, and
/// SU(2) lifts the weak ECMP lower-left corner.
#[test]
fn claim_fig5_shape() {
    let topos = EvalTopos::build(Scale::Small, 17);
    let values = [4u32, 12, 48];
    let ecmp = run_fig5_panel(&topos, RoutingScheme::Ecmp, &values, 20_000, 19);
    let su2 = run_fig5_panel(&topos, RoutingScheme::ShortestUnion(2), &values, 20_000, 19);
    let cell = |cells: &[spineless::core::throughput::HeatmapCell], c, s| {
        cells
            .iter()
            .find(|x| x.clients == c && x.servers == s)
            .map(|x| x.ratio)
            .expect("cell")
    };
    // Skewed cell: DRing wins under SU(2).
    assert!(
        cell(&su2, 12, 48) > 1.2,
        "skewed SU2 {}",
        cell(&su2, 12, 48)
    );
    // Lower-left: SU(2) at least matches ECMP.
    assert!(cell(&su2, 4, 4) >= cell(&ecmp, 4, 4) - 1e-9);
}

/// §6.3's structural root: DRing bisection is flat in ring length; the
/// equal-hardware RRG's grows.
#[test]
fn claim_bisection_gap() {
    let sweep = spineless::core::scale::bisection_sweep(6..=10, 23);
    let first = sweep.first().unwrap();
    let last = sweep.last().unwrap();
    assert!(last.1 <= first.1 + 8, "DRing cut ~flat: {sweep:?}");
    assert!(last.2 > first.2, "RRG cut grows: {sweep:?}");
}

/// §5.1: the evaluation trio is hardware-consistent — RRG uses exactly the
/// leaf-spine's equipment; the DRing is within a few % of its servers.
#[test]
fn claim_equipment_parity() {
    for scale in [Scale::Small, Scale::Paper] {
        let topos = EvalTopos::build(scale, 29);
        assert_eq!(topos.rrg.equipment(), topos.leafspine.equipment());
        let deficit = 1.0 - topos.dring.num_servers() as f64 / topos.leafspine.num_servers() as f64;
        assert!((0.0..0.05).contains(&deficit), "{scale:?}: {deficit}");
    }
}
