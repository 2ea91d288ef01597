//! Experiment X1b: FCT degradation under *live* link failures with mid-run
//! reconvergence — the paper's §7 open question ("What is the impact of
//! failures on network paths and load balancing?") answered on the data
//! plane instead of the control-plane-only `routing::failures::assess`.
//!
//! For each (topology, routing) combo a growing fraction of cables is cut
//! *during* the run (at [`RecoveryConfig::cut_ns`]); the control plane
//! reconverges after [`RecoveryConfig::reconverge_delay_ns`] and traffic
//! reroutes onto the surviving fabric. The sweep compares the leaf-spine
//! under ECMP against the flat DRing and RRG under Shortest-Union(2): flat
//! fabrics lose capacity smoothly (no cable is special), while leaf-spine
//! cuts sever spine capacity shared by every rack pair.

use crate::fct::{generate_workload, TmKind, TopoKind};
use crate::stats::FctSummary;
use crate::topos::{EvalTopos, Scale};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spineless_routing::failures::FailurePlan;
use spineless_routing::{ForwardingState, RoutingScheme};
use spineless_sim::{FailureSchedule, SimConfig, Simulation};
use std::sync::Arc;

/// Configuration of the recovery sweep.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Topology scale.
    pub scale: Scale,
    /// Fractions of cables to cut, one sweep point each (0.0 = healthy
    /// baseline).
    pub fractions: Vec<f64>,
    /// Time of the cut, ns from simulation start.
    pub cut_ns: u64,
    /// Control-plane reconvergence delay after the cut, ns.
    pub reconverge_delay_ns: u64,
    /// Target spine-layer utilization scaling the offered load.
    pub utilization: f64,
    /// Flow-arrival window, ns.
    pub window_ns: u64,
    /// Master seed.
    pub seed: u64,
    /// Simulator parameters. `max_time_ns` should be finite: heavy cuts
    /// can disconnect server pairs, whose flows then never finish.
    pub sim: SimConfig,
}

impl RecoveryConfig {
    /// A quick small-scale configuration (sub-second per sweep point).
    pub fn quick(seed: u64) -> RecoveryConfig {
        RecoveryConfig {
            scale: Scale::Small,
            fractions: vec![0.0, 0.05, 0.10, 0.20],
            cut_ns: 500_000,
            reconverge_delay_ns: 100_000,
            utilization: 0.3,
            window_ns: 2_000_000,
            seed,
            sim: SimConfig {
                max_time_ns: 200_000_000,
                ..SimConfig::default()
            },
        }
    }
}

/// One sweep point: a (topology, routing) combo at one failure fraction.
#[derive(Debug, Clone)]
pub struct RecoveryCell {
    /// Topology label.
    pub topo: String,
    /// Routing label.
    pub routing: String,
    /// Fraction of cables cut mid-run.
    pub fail_fraction: f64,
    /// Cables actually cut (`round(fraction * links)`).
    pub links_cut: usize,
    /// FCT / loss summary of the run.
    pub summary: FctSummary,
}

/// The three combos the sweep compares (the paper's headline trio).
pub fn recovery_combos() -> [(TopoKind, RoutingScheme); 3] {
    [
        (TopoKind::LeafSpine, RoutingScheme::Ecmp),
        (TopoKind::DRing, RoutingScheme::ShortestUnion(2)),
        (TopoKind::Rrg, RoutingScheme::ShortestUnion(2)),
    ]
}

/// Runs the sweep: every combo × every failure fraction, same workload
/// draw per topology across fractions (paired comparison — the only
/// variable along a row is the cut).
pub fn run_recovery_sweep(cfg: &RecoveryConfig) -> Vec<RecoveryCell> {
    let topos = EvalTopos::build(cfg.scale, cfg.seed);
    let offered = topos.offered_bytes(cfg.utilization, cfg.window_ns, cfg.sim.link_rate_gbps);
    let mut cells = Vec::new();
    for (tk, rs) in recovery_combos() {
        let topo = tk.of(&topos);
        let fs = Arc::new(ForwardingState::build(&topo.graph, rs));
        let flows = generate_workload(
            TmKind::Uniform,
            topo,
            offered,
            cfg.window_ns,
            cfg.seed ^ 0xA5,
        );
        for &fraction in &cfg.fractions {
            // The plan RNG is per-(combo, fraction) so sweep points are
            // independent draws but reproducible in isolation.
            let mut rng = SmallRng::seed_from_u64(
                cfg.seed ^ ((fraction * 1e4) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let plan = FailurePlan::random_links(topo, fraction, &mut rng);
            let mut sim = Simulation::new(topo, fs.clone(), cfg.sim, cfg.seed ^ 0x5A);
            for f in &flows.flows {
                sim.add_flow(f.src, f.dst, f.bytes, f.start_ns)
                    .expect("workload endpoints are valid and connected");
            }
            if !plan.failed_links.is_empty() {
                let mut sched = FailureSchedule::new(cfg.reconverge_delay_ns);
                for &e in &plan.failed_links {
                    sched = sched.link_down(cfg.cut_ns, e);
                }
                sim.set_failure_schedule(topo, fs.clone(), sched)
                    .expect("schedule uses this topology's own edge ids");
            }
            let report = sim.run();
            cells.push(RecoveryCell {
                topo: topo.name.clone(),
                routing: rs.label(),
                fail_fraction: fraction,
                links_cut: plan.failed_links.len(),
                summary: FctSummary::from_report(&report),
            });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_shape_and_healthy_baseline() {
        let cfg = RecoveryConfig {
            fractions: vec![0.0, 0.10],
            window_ns: 1_000_000,
            utilization: 0.2,
            ..RecoveryConfig::quick(3)
        };
        let cells = run_recovery_sweep(&cfg);
        assert_eq!(cells.len(), 3 * 2);
        for pair in cells.chunks(2) {
            let (healthy, cut) = (&pair[0], &pair[1]);
            assert_eq!(healthy.topo, cut.topo);
            assert_eq!(healthy.fail_fraction, 0.0);
            assert_eq!(healthy.links_cut, 0);
            // The healthy baseline finishes everything at this load.
            assert_eq!(healthy.unfinished(), 0, "{}", healthy.topo);
            assert!(healthy.summary.p99_ms.is_finite());
            assert!(cut.links_cut > 0);
            // Flows that survive the cut finish within the bounded horizon
            // (reconvergence works) or are counted, never hung.
            assert_eq!(cut.summary.flows, healthy.summary.flows);
        }
    }

    impl RecoveryCell {
        fn unfinished(&self) -> usize {
            self.summary.unfinished
        }
    }
}
