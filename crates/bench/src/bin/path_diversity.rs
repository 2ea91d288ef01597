//! Measures §4's diversity claim — "For DRing, Shortest-Union(2) provides
//! at least (n + 1) disjoint paths between any two racks" — exactly
//! (max-flow over the scheme's usable edge set, no enumeration caps),
//! broken down by rack distance, plus the shortest-path famine that
//! motivates the scheme.
//!
//! Reproduction note: the bound holds for adjacent racks (which get
//! `2n + 1`) and for rings of ≤ 8 supernodes; pairs of supernodes joined
//! only through one common chord supernode (i and i+4, ≥ 9 supernodes)
//! get exactly `n` — one below the claim. See EXPERIMENTS.md.
//!
//! `cargo run -p spineless-bench --release --bin path_diversity`

use spineless_bench::parse_args;
use spineless_routing::diversity::{min_su_disjoint_by_distance, shortest_path_counts_by_distance};
use spineless_routing::VrfGraph;
use spineless_topo::dring::DRing;

fn main() {
    let (_scale, _seed) = parse_args();
    println!("== §4 — Shortest-Union(2) disjoint paths on DRings (exact, by distance) ==");
    println!(
        "{:>11} {:>3} {:>6} {:>9} {:>22} {:>16}",
        "supernodes", "n", "racks", "n+1", "min disjoint by dist", "adjacent >= n+1"
    );
    let mut adjacent_holds = true;
    for (m, n, radix) in [
        (6u32, 2u32, 24u32),
        (6, 3, 32),
        (8, 3, 32),
        (5, 4, 40),
        (10, 2, 24),
        (12, 3, 40),
    ] {
        let topo = DRing::uniform(m, n, radix).build();
        let vrf = VrfGraph::build(&topo.graph, 2);
        let racks = topo.racks();
        let by_d = min_su_disjoint_by_distance(&topo.graph, &vrf, &racks);
        let pretty: Vec<String> = by_d.iter().map(|(d, v)| format!("d{d}:{v}")).collect();
        let adj_ok = by_d.get(&1).is_none_or(|&v| v > n);
        adjacent_holds &= adj_ok;
        println!(
            "{m:>11} {n:>3} {:>6} {:>9} {:>22} {:>16}",
            racks.len(),
            n + 1,
            pretty.join(" "),
            adj_ok
        );
    }

    println!("\n== the famine SU(2) fixes: shortest paths by rack distance (DRing 8x3) ==");
    let topo = DRing::uniform(8, 3, 32).build();
    for (d, min, mean) in shortest_path_counts_by_distance(&topo.graph, &topo.racks()) {
        println!("  distance {d}: min {min:>4} shortest paths, mean {mean:>8.1}");
    }
    println!("\nadjacent-rack claim (the case §4 motivates) holds everywhere: {adjacent_holds}");
    println!("chord pairs (supernodes i, i+4 with >= 9 supernodes) get exactly n —");
    println!("one below the paper's blanket (n+1) statement; see EXPERIMENTS.md.");
    std::process::exit(if adjacent_holds { 0 } else { 1 });
}
