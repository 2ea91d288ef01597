//! Regenerates Fig. 5 of the paper: DRing-vs-leaf-spine average-throughput
//! ratio heatmaps in the C-S model — four panels: {small, large} axis
//! ranges × {ECMP, Shortest-Union(2)} DRing routing.
//!
//! `cargo run -p spineless-bench --release --bin fig5 [-- --scale paper]`

use spineless_bench::parse_args;
use spineless_core::fct::TopoKind;
use spineless_core::throughput::{cs_axis_values, run_fig5_panel_with};
use spineless_core::{EvalTopos, RoutingCache};
use spineless_routing::RoutingScheme;

fn main() {
    let (scale, seed) = parse_args();
    let topos = EvalTopos::build(scale, seed);
    // Four panels share three distinct forwarding states (leaf-spine ECMP
    // appears in all of them): build each exactly once.
    let cache = RoutingCache::build(
        &topos,
        &[
            (TopoKind::LeafSpine, RoutingScheme::Ecmp),
            (TopoKind::DRing, RoutingScheme::Ecmp),
            (TopoKind::DRing, RoutingScheme::ShortestUnion(2)),
        ],
    );
    let fs_ls = cache.get(TopoKind::LeafSpine, RoutingScheme::Ecmp);
    let max_pairs = 60_000;
    eprintln!(
        "running Fig. 5 heatmaps at {scale:?} scale (DRing {} servers, leaf-spine {})...",
        topos.dring.num_servers(),
        topos.leafspine.num_servers()
    );
    let panels = [
        ("Fig. 5a — small values, ECMP", false, RoutingScheme::Ecmp),
        (
            "Fig. 5b — small values, shortest-union(2)",
            false,
            RoutingScheme::ShortestUnion(2),
        ),
        ("Fig. 5c — large values, ECMP", true, RoutingScheme::Ecmp),
        (
            "Fig. 5d — large values, shortest-union(2)",
            true,
            RoutingScheme::ShortestUnion(2),
        ),
    ];
    for (title, large, scheme) in panels {
        let values = cs_axis_values(scale, large);
        let t0 = std::time::Instant::now();
        let fs_dring = cache.get(TopoKind::DRing, scheme);
        let cells = run_fig5_panel_with(&topos, &fs_dring, &fs_ls, &values, max_pairs, seed);
        println!("== {title} ==  (cell = throughput(DRing)/throughput(leaf-spine))");
        print!("{:>10}", "C \\ S");
        for &s in &values {
            print!("{s:>8}");
        }
        println!();
        for &c in values.iter().rev() {
            print!("{c:>10}");
            for &s in &values {
                match cells.iter().find(|x| x.clients == c && x.servers == s) {
                    Some(cell) => print!("{:>8.2}", cell.ratio),
                    None => print!("{:>8}", "-"),
                }
            }
            println!();
        }
        eprintln!("({:.1}s)", t0.elapsed().as_secs_f64());
        println!();
    }
    println!("shape check: skewed cells (C << S or S << C) should approach the");
    println!("2x UDF bound under shortest-union(2); the ECMP panel's lower-left");
    println!("(small C and S: nearby-rack traffic) is where DRing+ECMP is weak.");
}
