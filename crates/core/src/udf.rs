//! §3.1: the NSR / UDF analysis, closed-form and measured.
//!
//! The paper's analytical result: for any `leaf-spine(x, y)`,
//! `NSR = y/x`, `NSR(F(T)) = 2y/x`, hence `UDF = 2` — a flat rewiring of
//! the same hardware doubles the per-server network capacity at the ToR
//! whenever traffic bottlenecks there. This module regenerates that
//! analysis as a table over (x, y) and cross-checks every row against
//! topologies actually constructed and rewired.

use spineless_topo::flat::{flatten, nsr_flat_of_leafspine, nsr_leafspine};
use spineless_topo::leafspine::LeafSpine;
use spineless_topo::metrics::nsr;

/// One row of the UDF table.
#[derive(Debug, Clone)]
pub struct UdfRow {
    /// Servers per leaf.
    pub x: u32,
    /// Spine count.
    pub y: u32,
    /// Rack oversubscription `x / y`.
    pub oversubscription: f64,
    /// Closed-form `NSR(T) = y/x`.
    pub nsr_analytic: f64,
    /// NSR measured on the constructed leaf-spine.
    pub nsr_measured: f64,
    /// Closed-form `NSR(F(T)) = 2y/x`.
    pub nsr_flat_analytic: f64,
    /// Mean NSR measured on the constructed flat rewiring.
    pub nsr_flat_measured: f64,
    /// Measured UDF (`nsr_flat_measured / nsr_measured`); analytic value
    /// is exactly 2 for every row.
    pub udf_measured: f64,
}

/// The default sweep: the paper's configuration plus scaled variants.
pub fn default_sweep() -> Vec<(u32, u32)> {
    vec![
        (48, 16),
        (24, 8),
        (12, 4),
        (9, 3),
        (16, 8),
        (10, 5),
        (20, 4),
        (30, 10),
    ]
}

/// Builds the table: one row per `(x, y)`, measured values from real
/// constructions (`flat_seed` feeds the rewiring RNG).
pub fn udf_table(sweep: &[(u32, u32)], flat_seed: u64) -> Vec<UdfRow> {
    sweep
        .iter()
        .map(|&(x, y)| {
            let t = LeafSpine::new(x, y).build();
            let f = flatten(&t, flat_seed).expect("flat rewiring succeeds");
            let nsr_t = nsr(&t).expect("leaf-spine has racks");
            let nsr_f = nsr(&f).expect("flat network has racks");
            UdfRow {
                x,
                y,
                oversubscription: x as f64 / y as f64,
                nsr_analytic: nsr_leafspine(x, y),
                nsr_measured: nsr_t.mean,
                nsr_flat_analytic: nsr_flat_of_leafspine(x, y),
                nsr_flat_measured: nsr_f.mean,
                udf_measured: nsr_f.mean / nsr_t.mean,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_has_udf_two() {
        for row in udf_table(&default_sweep(), 11) {
            assert!(
                (row.udf_measured - 2.0).abs() < 0.03,
                "({}, {}): measured UDF {}",
                row.x,
                row.y,
                row.udf_measured
            );
            assert!((row.nsr_analytic - row.nsr_measured).abs() < 1e-9);
            // Flat measurement deviates only by server rounding.
            assert!(
                (row.nsr_flat_analytic - row.nsr_flat_measured).abs() / row.nsr_flat_analytic
                    < 0.03
            );
        }
    }

    #[test]
    fn udf_independent_of_x_and_y() {
        let rows = udf_table(&[(12, 4), (48, 16), (30, 10)], 3);
        let udfs: Vec<f64> = rows.iter().map(|r| r.udf_measured).collect();
        for w in udfs.windows(2) {
            assert!((w[0] - w[1]).abs() < 0.05, "{udfs:?}");
        }
    }

    #[test]
    fn oversubscription_column() {
        let rows = udf_table(&[(48, 16)], 1);
        assert_eq!(rows[0].oversubscription, 3.0);
    }
}
