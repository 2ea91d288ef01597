//! The flat-rewiring transformation `F(T)` of paper §3.1.
//!
//! Given a topology `T` built from some equipment, `F(T)` is a *flat*
//! topology built with the **same equipment** — same switches, same radix,
//! same server count — but with servers distributed evenly across *all*
//! switches and every freed port recabled as a network link.
//!
//! The paper's concrete flat instantiation wires the freed ports as a
//! random graph (its RRG "is built ... by rewiring the baseline leaf-spine
//! topology", §5.1), so [`flatten`] delegates the cabling to
//! [`crate::rrg::Rrg`]; the analytic quantities (NSR of `F(T)`) do not
//! depend on the cabling at all, only on the port arithmetic.

use crate::rrg::Rrg;
use crate::topology::{Equipment, TopoError, Topology};

/// Even server distribution over `switches` switches: the first
/// `servers % switches` switches take `⌈servers/switches⌉`, the rest
/// `⌊servers/switches⌋`.
pub fn even_server_distribution(eq: Equipment) -> Vec<u32> {
    let base = eq.servers / eq.switches;
    let extra = (eq.servers % eq.switches) as usize;
    (0..eq.switches as usize)
        .map(|i| if i < extra { base + 1 } else { base })
        .collect()
}

/// Applies `F(·)` to a topology: same equipment, servers spread evenly,
/// freed ports wired as a seeded random graph.
pub fn flatten(t: &Topology, seed: u64) -> Result<Topology, TopoError> {
    let mut flat = Rrg::from_equipment(t.equipment(), seed).try_build()?;
    flat.name = format!("F({})", t.name);
    Ok(flat)
}

/// Analytic NSR of `leaf-spine(x, y)` itself: `y / x` (paper §3.1).
pub fn nsr_leafspine(x: u32, y: u32) -> f64 {
    y as f64 / x as f64
}

/// Analytic NSR of `F(leaf-spine(x, y))` (paper §3.1):
///
/// servers per switch = `x(x+y)/(x+2y)`, so
/// `NSR = ((x+y) − x(x+y)/(x+2y)) / (x(x+y)/(x+2y)) = 2y / x`.
pub fn nsr_flat_of_leafspine(x: u32, y: u32) -> f64 {
    2.0 * y as f64 / x as f64
}

/// Analytic UDF of a leaf-spine: `NSR(F(T)) / NSR(T) = 2`, independent of
/// `x` and `y` — the paper's headline analysis result (§3.1).
pub fn udf_leafspine(_x: u32, _y: u32) -> f64 {
    2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leafspine::LeafSpine;

    #[test]
    fn even_distribution_sums_and_balances() {
        let eq = Equipment {
            switches: 7,
            ports_per_switch: 10,
            servers: 23,
        };
        let d = even_server_distribution(eq);
        assert_eq!(d.iter().sum::<u32>(), 23);
        assert_eq!(d.iter().max().unwrap() - d.iter().min().unwrap(), 1);
        assert_eq!(d, vec![4, 4, 3, 3, 3, 3, 3]);
    }

    #[test]
    fn even_distribution_exact_division() {
        let eq = Equipment {
            switches: 4,
            ports_per_switch: 10,
            servers: 20,
        };
        assert_eq!(even_server_distribution(eq), vec![5; 4]);
    }

    #[test]
    fn flatten_preserves_equipment_and_is_flat() {
        let ls = LeafSpine::new(12, 4).build();
        let f = flatten(&ls, 9).unwrap();
        assert_eq!(f.equipment(), ls.equipment());
        assert!(f.is_flat());
        assert!(!ls.is_flat());
        assert!(f.name.starts_with("F(leaf-spine"));
    }

    #[test]
    fn analytic_nsr_formulas() {
        // leaf-spine(48,16): NSR = 1/3, flat NSR = 2/3, UDF = 2.
        assert!((nsr_leafspine(48, 16) - 1.0 / 3.0).abs() < 1e-12);
        assert!((nsr_flat_of_leafspine(48, 16) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(udf_leafspine(48, 16), 2.0);
        // UDF independent of x, y.
        for (x, y) in [(4, 1), (10, 10), (48, 16), (96, 32), (7, 3)] {
            let udf = nsr_flat_of_leafspine(x, y) / nsr_leafspine(x, y);
            assert!((udf - 2.0).abs() < 1e-12, "({x},{y})");
        }
    }

    #[test]
    fn flat_server_count_matches_paper_formula() {
        // Paper: servers per switch in F(leaf-spine(x,y)) = x(x+y)/(x+2y).
        // For (48,16): 48*64/80 = 38.4 — fractional, so the constructed
        // topology rounds to 38/39, averaging exactly 38.4.
        let ls = LeafSpine::paper_config().build();
        let f = flatten(&ls, 1).unwrap();
        let mean = f.servers.iter().map(|&s| s as f64).sum::<f64>() / f.num_switches() as f64;
        assert!((mean - 38.4).abs() < 1e-9);
    }
}
