//! Failure study (paper §7, "Impact of failures"): sweeps random link-cut
//! fractions on the three evaluation topologies and reports connectivity,
//! route stretch, Shortest-Union diversity loss, and BGP reconvergence
//! rounds.
//!
//! `cargo run -p spineless-bench --release --bin failures`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use spineless_bench::parse_args;
use spineless_core::cache::RoutingCache;
use spineless_core::fct::TopoKind;
use spineless_core::topos::EvalTopos;
use spineless_routing::failures::{assess_with, FailurePlan};
use spineless_routing::RoutingScheme;

fn main() {
    let (scale, seed) = parse_args();
    let topos = EvalTopos::build(scale, seed);
    // One baseline state per (topology, scheme); every cut fraction reuses
    // it through `assess_with`, which also rebuilds the degraded state
    // incrementally instead of from scratch.
    let combos = [
        (TopoKind::LeafSpine, RoutingScheme::Ecmp),
        (TopoKind::DRing, RoutingScheme::ShortestUnion(2)),
        (TopoKind::Rrg, RoutingScheme::ShortestUnion(2)),
    ];
    let cache = RoutingCache::build(&topos, &combos);
    println!("== link-failure sweep (random cuts, Shortest-Union(2) / ECMP) ==");
    println!(
        "{:<26} {:>6} {:>8} {:>12} {:>12} {:>10} {:>10} {:>9}",
        "topology",
        "cut %",
        "discon.",
        "cost before",
        "cost after",
        "div before",
        "div after",
        "BGP rnds"
    );
    for (tk, scheme) in combos {
        let topo = tk.of(&topos);
        let baseline = cache.get(tk, scheme);
        for fraction in [0.02, 0.05, 0.10, 0.20] {
            let mut rng = SmallRng::seed_from_u64(seed ^ (fraction * 1000.0) as u64);
            let plan = FailurePlan::random_links(topo, fraction, &mut rng);
            let impact = assess_with(topo, &baseline, &plan, 60).expect("assessment");
            println!(
                "{:<26} {:>6.0} {:>8} {:>12.3} {:>12.3} {:>10} {:>10} {:>9}",
                topo.name,
                fraction * 100.0,
                impact.disconnected_pairs,
                impact.mean_cost_before,
                impact.mean_cost_after,
                impact.min_diversity_before,
                impact.min_diversity_after,
                impact.bgp_rounds_after
            );
        }
    }
    println!("\nexpected shape: flat topologies absorb moderate cut fractions with");
    println!("zero disconnections and sub-hop mean stretch — every switch has many");
    println!("equal neighbours — while the leaf-spine's spine layer concentrates");
    println!("risk; BGP reconvergence stays within a handful of synchronous rounds.");
}
