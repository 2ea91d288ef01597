//! §6.3 / Fig. 6: DRing performance deteriorates with scale.
//!
//! "99%ile FCT of DRing deteriorates at large scale in comparison to
//! equivalent RRG for uniform traffic. For DRing, we used 6 switches per
//! supernode with 60 ports per switch, 36 of which were server links.
//! Along the x-axis, we add supernodes to obtain a larger topology."
//!
//! Each x-axis point builds a DRing with `m` supernodes (6m racks) and an
//! RRG with the exact same per-switch hardware (degree 24, 36 servers),
//! offers both the same uniform workload, and reports the p99-FCT ratio.
//! The structural cause — the DRing's scale-independent bisection against
//! the expander's linearly growing one — is measured alongside.

use crate::fct::{generate_workload, run_cell, TmKind};
use spineless_graph::par;
use spineless_routing::RoutingScheme;
use spineless_sim::SimConfig;
use spineless_topo::dring::DRing;
use spineless_topo::rrg::Rrg;
use spineless_topo::Topology;

/// Configuration for the scale study.
#[derive(Debug, Clone, Copy)]
pub struct ScaleStudyConfig {
    /// Supernode counts to sweep (racks = 6 × supernodes).
    /// The paper's x-axis of 40–90 racks corresponds to 7..=15.
    pub supernodes_from: u32,
    /// Inclusive upper end of the sweep.
    pub supernodes_to: u32,
    /// Fraction of aggregate host injection bandwidth offered (the study
    /// has no spine layer to anchor to; both topologies see the same
    /// per-server load, which is what makes the ratio meaningful).
    pub host_load: f64,
    /// Flow arrival window, ns.
    pub window_ns: u64,
    /// Master seed.
    pub seed: u64,
    /// Simulator parameters.
    pub sim: SimConfig,
}

impl ScaleStudyConfig {
    /// A fast sweep over a reduced range (for tests/examples).
    pub fn quick(seed: u64) -> ScaleStudyConfig {
        ScaleStudyConfig {
            supernodes_from: 5,
            supernodes_to: 8,
            host_load: 0.04,
            window_ns: 1_000_000,
            seed,
            sim: SimConfig::default(),
        }
    }

    /// The paper's range: 7..=15 supernodes (42–90 racks).
    pub fn paper(seed: u64) -> ScaleStudyConfig {
        ScaleStudyConfig {
            supernodes_from: 7,
            supernodes_to: 15,
            host_load: 0.08,
            window_ns: 4_000_000,
            seed,
            sim: SimConfig::default(),
        }
    }
}

/// One x-axis point of Fig. 6.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Racks at this point (6 × supernodes).
    pub racks: u32,
    /// p99 FCT on the DRing, ms.
    pub dring_p99_ms: f64,
    /// p99 FCT on the equal-hardware RRG, ms.
    pub rrg_p99_ms: f64,
    /// The plotted ratio `FCT(DRing) / FCT(RRG)`.
    pub ratio: f64,
    /// Median ratio (extra series, not in the paper's figure).
    pub median_ratio: f64,
}

/// Builds the equal-hardware RRG for a DRing scale point.
pub fn equivalent_rrg(dring: &Topology, seed: u64) -> Topology {
    // Same switch count; per-switch degree/servers mirror the DRing's
    // uniform 24/36 split.
    Rrg::uniform(dring.num_switches(), 24, 36, 60, seed).build()
}

/// Runs the Fig. 6 sweep. Uniform traffic, ECMP on both topologies at each
/// point is the paper's setup; we use ECMP for both (the figure's caption
/// compares the topologies, not routing schemes).
///
/// Cells — one per (scale point, topology) — run on the [`par`] pool.
/// Deterministic despite the parallelism: every cell rebuilds its
/// topology, workload and forwarding state from seeds that derive from
/// `(cfg.seed, m)` alone.
/// (Unlike Fig. 4, no forwarding state recurs here — each of the sweep's
/// topologies is simulated once — so there is nothing for a
/// [`crate::cache::RoutingCache`] to share and the win is pure
/// parallelism.)
pub fn run_fig6(cfg: &ScaleStudyConfig) -> Vec<ScalePoint> {
    assert!(
        cfg.supernodes_from >= 5,
        "DRing supergraph needs >= 5 supernodes"
    );
    assert!(cfg.supernodes_from <= cfg.supernodes_to);
    // One job per (point, topology): (supernodes, is_rrg).
    let jobs: Vec<(u32, bool)> = (cfg.supernodes_from..=cfg.supernodes_to)
        .flat_map(|m| [(m, false), (m, true)])
        .collect();
    let results = par::map_ordered(
        &jobs,
        par::host_threads(),
        || (),
        |_, &(m, is_rrg)| {
            let dring = DRing::scale_config(m).build();
            // Same per-server injected load on both topologies.
            let servers = dring.num_servers() as f64;
            let bytes_per_ns = cfg.sim.link_rate_gbps / 8.0;
            let offered = (cfg.host_load * servers * bytes_per_ns * cfg.window_ns as f64) as u64;
            let seed = cfg.seed.wrapping_mul(31).wrapping_add(m as u64);
            let topo = if is_rrg {
                equivalent_rrg(&dring, cfg.seed.wrapping_add(m as u64))
            } else {
                dring
            };
            let flows = generate_workload(TmKind::Uniform, &topo, offered, cfg.window_ns, seed);
            let cell = run_cell(&topo, RoutingScheme::Ecmp, &flows, "A2A", cfg.sim, seed);
            (cell.p99_ms, cell.median_ms)
        },
    );
    // Jobs interleave (dring, rrg) per point; stitch adjacent pairs.
    results
        .chunks_exact(2)
        .zip(cfg.supernodes_from..=cfg.supernodes_to)
        .map(|(pair, m)| {
            let (d_p99, d_med) = pair[0];
            let (r_p99, r_med) = pair[1];
            ScalePoint {
                racks: DRing::scale_config(m).build().num_racks(),
                dring_p99_ms: d_p99,
                rrg_p99_ms: r_p99,
                ratio: d_p99 / r_p99,
                median_ratio: d_med / r_med,
            }
        })
        .collect()
}

/// The structural companion to Fig. 6: estimated bisection cut per switch
/// for DRing vs equal-hardware RRG across the same sweep. The DRing's
/// absolute cut stays flat while the RRG's grows linearly — the
/// theoretical `O(n)` gap the paper cites.
pub fn bisection_sweep(
    supernodes: std::ops::RangeInclusive<u32>,
    seed: u64,
) -> Vec<(u32, u32, u32)> {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for m in supernodes {
        let dring = DRing::scale_config(m).build();
        let rrg = equivalent_rrg(&dring, seed.wrapping_add(m as u64));
        let (cd, _) = spineless_graph::cuts::estimate_bisection(&dring.graph, 6, &mut rng);
        let (cr, _) = spineless_graph::cuts::estimate_bisection(&rrg.graph, 6, &mut rng);
        out.push((dring.num_racks(), cd, cr));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalent_rrg_matches_hardware() {
        let dring = DRing::scale_config(7).build();
        let rrg = equivalent_rrg(&dring, 1);
        assert_eq!(rrg.num_switches(), dring.num_switches());
        assert_eq!(rrg.num_servers(), dring.num_servers());
        assert_eq!(rrg.equipment(), dring.equipment());
    }

    #[test]
    fn bisection_gap_grows_with_scale() {
        let sweep = bisection_sweep(6..=12, 2);
        let first = sweep.first().unwrap();
        let last = sweep.last().unwrap();
        // DRing cut roughly flat; RRG cut grows.
        assert!(last.2 > first.2, "RRG bisection should grow: {sweep:?}");
        let dring_growth = last.1 as f64 / first.1 as f64;
        let rrg_growth = last.2 as f64 / first.2 as f64;
        assert!(
            rrg_growth > dring_growth * 1.3,
            "expander grows faster: dring x{dring_growth:.2} rrg x{rrg_growth:.2}"
        );
    }

    #[test]
    fn quick_sweep_produces_monotone_axis() {
        // Keep this test light: 2 points, small load.
        let cfg = ScaleStudyConfig {
            supernodes_from: 5,
            supernodes_to: 6,
            host_load: 0.01,
            window_ns: 300_000,
            seed: 3,
            sim: SimConfig::default(),
        };
        let pts = run_fig6(&cfg);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].racks, 30);
        assert_eq!(pts[1].racks, 36);
        for p in &pts {
            assert!(p.ratio.is_finite() && p.ratio > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = ">= 5 supernodes")]
    fn rejects_tiny_rings() {
        let cfg = ScaleStudyConfig {
            supernodes_from: 3,
            ..ScaleStudyConfig::quick(1)
        };
        run_fig6(&cfg);
    }

    #[test]
    fn stats_module_is_reachable() {
        // Guards the pub use surface the bench harness relies on.
        assert_eq!(crate::stats::median(&[1.0]), Some(1.0));
    }
}
