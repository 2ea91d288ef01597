//! Regenerates Fig. 6 of the paper: the 99th-percentile FCT of a DRing
//! relative to an equal-hardware RRG, as supernodes are added (uniform
//! traffic) — plus the structural bisection sweep that explains it.
//!
//! `cargo run -p spineless-bench --release --bin fig6 [-- --scale paper]`

use spineless_bench::parse_args;
use spineless_core::scale::{bisection_sweep, run_fig6, ScaleStudyConfig};
use spineless_core::Scale;

fn main() {
    let (scale, seed) = parse_args();
    let cfg = match scale {
        Scale::Small => ScaleStudyConfig::quick(seed),
        Scale::Paper => ScaleStudyConfig::paper(seed),
        Scale::Production => {
            eprintln!(
                "fig6 reproduces the paper's figure at small|paper scale; \
                 the production tier is spinebench's a2a_production \
                 (bash crates/benchmark/run.sh --seed 42 --workload a2a_production)"
            );
            std::process::exit(2);
        }
    };
    eprintln!(
        "running Fig. 6 sweep at {scale:?} scale (supernodes {}..={}, host load {})...",
        cfg.supernodes_from, cfg.supernodes_to, cfg.host_load
    );
    let t0 = std::time::Instant::now();
    let pts = run_fig6(&cfg);
    eprintln!("done in {:.1}s\n", t0.elapsed().as_secs_f64());

    println!("== Fig. 6 — p99 FCT(DRing) / p99 FCT(RRG), uniform traffic ==");
    println!(
        "{:>6} {:>14} {:>14} {:>10} {:>14}",
        "racks", "DRing p99(ms)", "RRG p99(ms)", "p99 ratio", "median ratio"
    );
    for p in &pts {
        println!(
            "{:>6} {:>14.3} {:>14.3} {:>10.2} {:>14.2}",
            p.racks, p.dring_p99_ms, p.rrg_p99_ms, p.ratio, p.median_ratio
        );
    }

    println!("\n== structural companion: estimated bisection cut ==");
    println!("{:>6} {:>12} {:>12}", "racks", "DRing", "RRG");
    for (racks, d, r) in bisection_sweep(cfg.supernodes_from..=cfg.supernodes_to, seed) {
        println!("{racks:>6} {d:>12} {r:>12}");
    }
    println!("\nshape check: the ratio column should drift above 1 as racks grow —");
    println!("the DRing's fixed ring cross-section against the expander's growing cut.");
}
