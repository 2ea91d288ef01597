//! The evaluation topology trio (§5.1) at selectable scale.
//!
//! Paper scale:
//!
//! * `leaf-spine(48, 16)` — 64 racks, 16 spines, 3072 servers, 3:1
//!   oversubscription, 64-port switches;
//! * DRing — 12 supernodes, 80 racks, ≈2990 servers, same switch hardware;
//! * RRG — the leaf-spine's exact equipment rewired flat (servers spread
//!   over all 80 switches, remaining ports randomly cabled).
//!
//! "Small" scale shrinks everything by ~4× in each dimension (keeping the
//! 3:1 oversubscription and the flat/DRing structure) so the full Fig. 4
//! grid runs in seconds; experiments expose the scale as a parameter and
//! EXPERIMENTS.md records which scale produced each reported number.

use spineless_topo::dring::DRing;
use spineless_topo::leafspine::LeafSpine;
use spineless_topo::rrg::Rrg;
use spineless_topo::Topology;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Proportionally reduced (≈190 servers): seconds per cell.
    Small,
    /// The paper's configuration (≈3000 servers): minutes per cell.
    Paper,
    /// Beyond the paper: ≥100 racks per topology (DRing at 102 racks via
    /// the §6.3 scale-study hardware), the regime the ROADMAP's
    /// north-star and the sharded engine target. Workloads at this tier
    /// run ≥10⁵ concurrent flows.
    Production,
}

impl Scale {
    /// Parses `"small"` / `"paper"` / `"production"` (CLI helper).
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            "production" => Some(Scale::Production),
            _ => None,
        }
    }
}

/// The three §5.1 topologies built from one scale and seed.
#[derive(Debug, Clone)]
pub struct EvalTopos {
    /// The leaf-spine baseline.
    pub leafspine: Topology,
    /// The paper's DRing.
    pub dring: Topology,
    /// The Jellyfish-style RRG built from the leaf-spine's equipment.
    pub rrg: Topology,
    /// The scale used.
    pub scale: Scale,
}

impl EvalTopos {
    /// Leaf-spine parameters `(x, y)` for a scale.
    pub fn leafspine_params(scale: Scale) -> (u32, u32) {
        match scale {
            Scale::Small => (15, 5), // 20 leaves, 5 spines, 300 servers, 3:1
            Scale::Paper => (48, 16),
            // 100 leaves, 25 spines, 7500 servers — 3:1 preserved, rack
            // count matched to the production DRing's 102.
            Scale::Production => (75, 25),
        }
    }

    /// DRing builder for a scale (hardware comparable to the leaf-spine).
    pub fn dring_config(scale: Scale) -> DRing {
        match scale {
            // 12 supernodes × 2 ToRs on 20-port switches: 24 racks,
            // network degree 8, 12 servers per ToR = 288 servers — NSR
            // 8/12 = 2/3, exactly 2× the leaf-spine's 1/3, mirroring the
            // paper-scale proportions (DRing NSR ≈ 26/38).
            Scale::Small => DRing::uniform(12, 2, 20),
            Scale::Paper => DRing::paper_config(),
            // The §6.3 scale-study hardware (6-ToR supernodes, 60-port
            // switches) at 17 supernodes: 102 racks, 3672 servers.
            Scale::Production => DRing::scale_config(17),
        }
    }

    /// Builds all three topologies; `seed` feeds the RRG wiring.
    pub fn build(scale: Scale, seed: u64) -> EvalTopos {
        let (x, y) = Self::leafspine_params(scale);
        let leafspine = LeafSpine::new(x, y).build();
        let dring = Self::dring_config(scale).build();
        let rrg = Rrg::from_equipment(leafspine.equipment(), seed).build();
        EvalTopos {
            leafspine,
            dring,
            rrg,
            scale,
        }
    }

    /// Offered load (bytes over `window_ns`) that drives the leaf-spine's
    /// spine layer to `utilization` — the paper's TM scaling anchor (§6.1:
    /// "We scale the TMs so that the network utilization in the spine
    /// layer is 30%"). The same byte budget is then offered to every
    /// topology so comparisons hold load fixed.
    pub fn offered_bytes(&self, utilization: f64, window_ns: u64, link_rate_gbps: f64) -> u64 {
        let (x, y) = Self::leafspine_params(self.scale);
        let uplinks = (x + y) as f64 * y as f64; // leaves × spines
        let bytes_per_ns = link_rate_gbps / 8.0;
        (utilization * uplinks * bytes_per_ns * window_ns as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_section_5_1() {
        let t = EvalTopos::build(Scale::Paper, 1);
        assert_eq!(t.leafspine.num_servers(), 3072);
        assert_eq!(t.leafspine.num_racks(), 64);
        assert_eq!(t.dring.num_racks(), 80);
        // "about 2.8% fewer servers" (ours: 2.6%, see DRing::paper_config).
        assert!(t.dring.num_servers() >= 2960 && t.dring.num_servers() < 3072);
        assert_eq!(t.rrg.equipment(), t.leafspine.equipment());
        assert!(t.dring.is_flat() && t.rrg.is_flat());
    }

    #[test]
    fn small_scale_preserves_structure() {
        let t = EvalTopos::build(Scale::Small, 2);
        // 3:1 oversubscription preserved.
        let (x, y) = EvalTopos::leafspine_params(Scale::Small);
        assert_eq!(x / y, 3);
        assert_eq!(t.leafspine.num_servers(), 300);
        // DRing is ~4% smaller, like the paper's 2.8% deficit.
        assert_eq!(t.dring.num_servers(), 288);
        assert!(t.dring.num_racks() > t.leafspine.num_racks());
        assert_eq!(t.rrg.num_servers(), 300);
        // NSR proportions mirror the paper: flat ≈ 2× leaf-spine.
        let nsr_ls = spineless_topo::metrics::nsr(&t.leafspine).unwrap().mean;
        let nsr_dr = spineless_topo::metrics::nsr(&t.dring).unwrap().mean;
        assert!((nsr_dr / nsr_ls - 2.0).abs() < 0.05, "{}", nsr_dr / nsr_ls);
    }

    #[test]
    fn offered_bytes_formula() {
        let t = EvalTopos::build(Scale::Small, 3);
        // 20 leaves × 5 spines × 1.25 B/ns × 0.3 × 1e6 ns = 37.5e6 bytes.
        let b = t.offered_bytes(0.3, 1_000_000, 10.0);
        assert_eq!(b, 37_500_000);
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("production"), Some(Scale::Production));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn production_scale_reaches_one_hundred_racks() {
        // Topology construction only — no RRG rewiring — so the check
        // stays fast enough for every push.
        let dring = EvalTopos::dring_config(Scale::Production).build();
        assert!(dring.num_racks() >= 100, "{} racks", dring.num_racks());
        let (x, y) = EvalTopos::leafspine_params(Scale::Production);
        assert_eq!(x / y, 3);
        assert!(x + y >= 100);
    }
}
