//! §6.3 in miniature: watch the DRing's edge over the expander evaporate
//! as supernodes are added — first structurally (bisection bandwidth stays
//! flat while the RRG's grows), then behaviourally (p99 FCT ratio).
//!
//! Run with: `cargo run --release --example scale_study`

use spineless::core::scale::{bisection_sweep, run_fig6, ScaleStudyConfig};
use spineless::sim::SimConfig;

fn main() {
    // Structure: absolute bisection cut, DRing vs equal-hardware RRG.
    println!("== bisection bandwidth vs scale ==");
    println!(
        "{:>6} {:>12} {:>12} {:>8}",
        "racks", "DRing cut", "RRG cut", "ratio"
    );
    for (racks, dring_cut, rrg_cut) in bisection_sweep(5..=12, 7) {
        println!(
            "{racks:>6} {dring_cut:>12} {rrg_cut:>12} {:>8.2}",
            rrg_cut as f64 / dring_cut as f64
        );
    }
    println!("The DRing's cut is set by two ring cross-sections and does not");
    println!("grow; the expander's grows with size — the O(n) gap of §3.2.\n");

    // Behaviour: a quick FCT sweep (reduced load; see the fig6 bench
    // harness for the paper-scale run).
    println!("== p99 FCT ratio DRing/RRG, uniform traffic ==");
    let cfg = ScaleStudyConfig {
        supernodes_from: 5,
        supernodes_to: 10,
        host_load: 0.05,
        window_ns: 1_500_000,
        seed: 11,
        sim: SimConfig::default(),
    };
    println!(
        "{:>6} {:>14} {:>14} {:>8}",
        "racks", "DRing p99(ms)", "RRG p99(ms)", "ratio"
    );
    for p in run_fig6(&cfg) {
        println!(
            "{:>6} {:>14.3} {:>14.3} {:>8.2}",
            p.racks, p.dring_p99_ms, p.rrg_p99_ms, p.ratio
        );
    }
    println!("\nRatios drifting upward with rack count reproduce Fig. 6's trend.");
}
