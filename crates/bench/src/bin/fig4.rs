//! Regenerates Fig. 4 of the paper: median (4a) and 99th-percentile (4b)
//! flow completion times for seven traffic matrices over the five
//! (topology, routing) combinations.
//!
//! `cargo run -p spineless-bench --release --bin fig4 [-- --scale paper]`

use spineless_bench::parse_args;
use spineless_core::fct::{run_fig4, FctConfig, TmKind};
use spineless_core::Scale;

fn main() {
    let (scale, seed) = parse_args();
    let cfg = match scale {
        Scale::Small => FctConfig::quick(seed),
        Scale::Paper => FctConfig::paper(seed),
        Scale::Production => {
            eprintln!(
                "fig4 reproduces the paper's figure at small|paper scale; \
                 the production tier is spinebench's a2a_production \
                 (bash crates/benchmark/run.sh --seed 42 --workload a2a_production)"
            );
            std::process::exit(2);
        }
    };
    eprintln!(
        "running Fig. 4 grid at {scale:?} scale (35 cells, window {} ms, 30% spine load)...",
        cfg.window_ns as f64 / 1e6
    );
    let t0 = std::time::Instant::now();
    let cells = run_fig4(&cfg);
    eprintln!("done in {:.1}s\n", t0.elapsed().as_secs_f64());

    let combos: Vec<(String, String)> = cells
        .iter()
        .take(5)
        .map(|c| (c.topo.clone(), c.routing.clone()))
        .collect();

    for (title, pick) in [
        ("Fig. 4a — median FCT (ms)", 0usize),
        ("Fig. 4b — 99th percentile FCT (ms)", 1),
    ] {
        println!("== {title} ==");
        print!("{:<34}", "");
        for tm in TmKind::all() {
            print!("{:>16}", tm.label());
        }
        println!();
        for (topo, routing) in &combos {
            print!("{:<34}", format!("{topo} ({routing})"));
            for tm in TmKind::all() {
                let cell = cells
                    .iter()
                    .find(|c| &c.topo == topo && &c.routing == routing && c.tm == tm.label())
                    .expect("grid is complete");
                let v = if pick == 0 {
                    cell.median_ms
                } else {
                    cell.p99_ms
                };
                print!("{v:>16.3}");
            }
            println!();
        }
        println!();
    }

    // Shape check mirroring §6.1's takeaways.
    let get = |topo: &str, routing: &str, tm: TmKind| {
        cells
            .iter()
            .find(|c| c.topo.starts_with(topo) && c.routing == routing && c.tm == tm.label())
            .expect("cell")
    };
    let ls = get("leaf-spine", "ecmp", TmKind::FbSkewed).p99_ms;
    let dr = get("dring", "shortest-union(2)", TmKind::FbSkewed).p99_ms;
    let rr = get("rrg", "shortest-union(2)", TmKind::FbSkewed).p99_ms;
    let ls_med = get("leaf-spine", "ecmp", TmKind::FbSkewed).median_ms;
    let dr_med = get("dring", "shortest-union(2)", TmKind::FbSkewed).median_ms;
    println!(
        "shape check (skewed p99): leaf-spine {ls:.3} ms vs DRing {dr:.3} ms vs RRG {rr:.3} ms"
    );
    println!(
        "DRing beats leaf-spine on skewed traffic (median {dr_med:.3} vs {ls_med:.3}): {}",
        dr < ls && dr_med < ls_med
    );
    println!("(single-seed p99 is noisy for heavy-tailed skew; run the seed_variance");
    println!(" harness for multi-seed means)");
    let dr_ecmp_r2r = get("dring", "ecmp", TmKind::RackToRack).p99_ms;
    let dr_su2_r2r = get("dring", "shortest-union(2)", TmKind::RackToRack).p99_ms;
    println!(
        "SU(2) fixes DRing's rack-to-rack ECMP problem: {dr_su2_r2r:.3} ms vs {dr_ecmp_r2r:.3} ms ({})",
        dr_su2_r2r < dr_ecmp_r2r
    );
}
