//! Regenerates the §3.1 analysis as a table: NSR and UDF for a sweep of
//! `leaf-spine(x, y)` configurations, closed-form vs measured on actually
//! constructed and rewired topologies. The paper's result: UDF = 2 for
//! every (x, y).
//!
//! `cargo run -p spineless-bench --release --bin table_udf`

use spineless_bench::parse_args;
use spineless_core::udf::{default_sweep, udf_table};

fn main() {
    let (_scale, seed) = parse_args();
    let rows = udf_table(&default_sweep(), seed);
    println!("== §3.1 — NSR and UDF of leaf-spine(x, y) and its flat rewiring ==");
    println!(
        "{:>4} {:>4} {:>8} {:>12} {:>12} {:>14} {:>14} {:>10}",
        "x",
        "y",
        "oversub",
        "NSR(T) calc",
        "NSR(T) meas",
        "NSR(F(T)) calc",
        "NSR(F(T)) meas",
        "UDF meas"
    );
    for r in &rows {
        println!(
            "{:>4} {:>4} {:>8.2} {:>12.4} {:>12.4} {:>14.4} {:>14.4} {:>10.3}",
            r.x,
            r.y,
            r.oversubscription,
            r.nsr_analytic,
            r.nsr_measured,
            r.nsr_flat_analytic,
            r.nsr_flat_measured,
            r.udf_measured
        );
    }
    let max_dev = rows
        .iter()
        .map(|r| (r.udf_measured - 2.0).abs())
        .fold(0.0f64, f64::max);
    println!("\npaper's claim: UDF(leaf-spine(x, y)) = 2 for all x, y.");
    println!("largest measured deviation from 2 (server-rounding only): {max_dev:.4}");
}
