//! Verifies the §4 deployability claim end to end: a distributed eBGP
//! control plane over the VRF graph (one AS per router, costs via AS-path
//! prepending, multipath over equal lengths) converges to exactly the
//! Shortest-Union(K) forwarding state — the workspace's stand-in for the
//! paper's GNS3 / Cisco-7200 prototype.
//!
//! `cargo run -p spineless-bench --release --bin bgp_convergence`

use spineless_bench::parse_args;
use spineless_routing::{bgp, ForwardingState, RoutingScheme};
use spineless_topo::dring::DRing;
use spineless_topo::leafspine::LeafSpine;
use spineless_topo::rrg::Rrg;
use spineless_topo::Topology;

fn main() {
    let (_scale, seed) = parse_args();
    let topos: Vec<(Topology, RoutingScheme)> = vec![
        (LeafSpine::new(8, 4).build(), RoutingScheme::Ecmp),
        (
            DRing::uniform(8, 3, 28).build(),
            RoutingScheme::ShortestUnion(2),
        ),
        (
            Rrg::uniform(24, 8, 6, 14, seed).build(),
            RoutingScheme::ShortestUnion(2),
        ),
    ];
    println!("== §4 — BGP/VRF realization of Shortest-Union(K) ==");
    println!(
        "{:<26} {:<20} {:>8} {:>10} {:>12}",
        "topology", "scheme", "rounds", "speakers", "FIB match"
    );
    let mut all_match = true;
    for (topo, scheme) in &topos {
        let fs = ForwardingState::build(&topo.graph, *scheme);
        let out = bgp::converge(&fs.vrf);
        assert!(out.converged, "BGP failed to converge on {}", topo.name);
        let matches = fibs_match(&fs, &out);
        all_match &= matches;
        println!(
            "{:<26} {:<20} {:>8} {:>10} {:>12}",
            topo.name,
            scheme.label(),
            out.rounds,
            fs.vrf.graph.num_nodes(),
            matches
        );
    }
    println!("\ndistributed BGP reproduces the centrally computed FIBs: {all_match}");
    std::process::exit(if all_match { 0 } else { 1 });
}

/// FIB equality modulo the destination router's own transit VRFs (which
/// BGP correctly leaves route-less for their own prefix; no packet ever
/// consults them — see `spineless_routing::bgp`).
fn fibs_match(fs: &ForwardingState, out: &bgp::BgpOutcome) -> bool {
    for dst in 0..fs.vrf.routers {
        let pr = &out.prefixes[dst as usize];
        for v in 0..fs.vrf.graph.num_nodes() {
            if fs.vrf.router_of(v) == dst && v != fs.vrf.host_node(dst) {
                continue;
            }
            let mut a = pr.fib[v as usize].clone();
            let mut b: Vec<_> = fs.next_hops(v, dst).collect();
            a.sort_unstable();
            b.sort_unstable();
            if a != b {
                return false;
            }
        }
    }
    true
}
