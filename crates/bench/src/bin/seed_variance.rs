//! Seed-variance study for the heavy-tailed cells of Fig. 4.
//!
//! The FB-skewed column is the most seed-sensitive one: a lognormal
//! rack-activity draw decides which racks melt, and the Pareto sizes put
//! most bytes into a few elephants. This harness reruns that column over
//! several seeds and reports per-seed and aggregate numbers, so single-seed
//! outliers in `fig4` output can be recognized as such.
//!
//! `cargo run -p spineless-bench --release --bin seed_variance [-- --scale paper]`

use spineless_bench::parse_args;
use spineless_core::fct::{generate_workload, run_cell, FctConfig, TmKind};
use spineless_core::topos::EvalTopos;
use spineless_core::Scale;
use spineless_routing::RoutingScheme;

fn main() {
    let (scale, base_seed) = parse_args();
    let cfg = match scale {
        Scale::Small => FctConfig::quick(base_seed),
        Scale::Paper => FctConfig::paper(base_seed),
        Scale::Production => {
            eprintln!(
                "seed_variance reproduces the paper's figure at small|paper scale; \
                 the production tier is spinebench's a2a_production \
                 (bash crates/benchmark/run.sh --seed 42 --workload a2a_production)"
            );
            std::process::exit(2);
        }
    };
    let topos = EvalTopos::build(cfg.scale, cfg.seed);
    let offered = cfg.offered_bytes(&topos);
    let seeds: Vec<u64> = (0..3)
        .map(|i| base_seed.wrapping_add(i * 1_000_003))
        .collect();
    println!("== FB-skewed FCT across seeds {seeds:?} ({scale:?} scale) ==");
    println!(
        "{:<44} {:>8} {:>12} {:>12}",
        "combo", "seed", "median(ms)", "p99(ms)"
    );
    for (topo, scheme) in [
        (&topos.leafspine, RoutingScheme::Ecmp),
        (&topos.dring, RoutingScheme::ShortestUnion(2)),
        (&topos.rrg, RoutingScheme::ShortestUnion(2)),
    ] {
        let mut medians = Vec::new();
        let mut p99s = Vec::new();
        for &seed in &seeds {
            let flows = generate_workload(TmKind::FbSkewed, topo, offered, cfg.window_ns, seed);
            let cell = run_cell(topo, scheme, &flows, "FB skewed", cfg.sim, seed);
            println!(
                "{:<44} {seed:>8} {:>12.3} {:>12.3}",
                format!("{} ({})", topo.name, scheme.label()),
                cell.median_ms,
                cell.p99_ms
            );
            medians.push(cell.median_ms);
            p99s.push(cell.p99_ms);
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        println!(
            "{:<44} {:>8} {:>12.3} {:>12.3}",
            "  -> mean over seeds",
            "",
            mean(&medians),
            mean(&p99s)
        );
    }
}
