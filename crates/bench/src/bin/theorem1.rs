//! Verifies Theorem 1 of §4 exhaustively: for routers at physical distance
//! L, the VRF-graph distance between their host VRFs is max(L, K) — on the
//! paper's three topology families and K ∈ {1, 2, 3, 4}.
//!
//! `cargo run -p spineless-bench --release --bin theorem1`

use spineless_bench::parse_args;
use spineless_graph::bfs;
use spineless_routing::VrfGraph;
use spineless_topo::dring::DRing;
use spineless_topo::leafspine::LeafSpine;
use spineless_topo::rrg::Rrg;
use spineless_topo::Topology;

fn main() {
    let (_scale, seed) = parse_args();
    let topos: Vec<Topology> = vec![
        LeafSpine::new(8, 4).build(),
        DRing::uniform(8, 3, 28).build(),
        Rrg::uniform(24, 8, 6, 14, seed).build(),
    ];
    println!("== §4 Theorem 1 — VRF-graph host distance = max(L, K) ==");
    println!(
        "{:<24} {:>3} {:>10} {:>12} {:>10}",
        "topology", "K", "pairs", "violations", "max dist"
    );
    let mut all_ok = true;
    for topo in &topos {
        let phys = bfs::all_pairs_distances(&topo.graph);
        for k in 1..=4u32 {
            let vrf = VrfGraph::build(&topo.graph, k);
            let mut pairs = 0u64;
            let mut violations = 0u64;
            let mut max_d = 0u64;
            for s in 0..topo.num_switches() {
                for t in 0..topo.num_switches() {
                    if s == t {
                        continue;
                    }
                    pairs += 1;
                    let l = phys[s as usize][t as usize] as u64;
                    let got = vrf.host_distance(s, t).expect("connected");
                    max_d = max_d.max(got);
                    if got != l.max(k as u64) {
                        violations += 1;
                    }
                }
            }
            all_ok &= violations == 0;
            println!(
                "{:<24} {k:>3} {pairs:>10} {violations:>12} {max_d:>10}",
                topo.name
            );
        }
    }
    println!("\ntheorem holds on every pair: {all_ok}");
    std::process::exit(if all_ok { 0 } else { 1 });
}
