//! Load-balancing scheme shoot-out on the DRing — the §2 comparison the
//! paper motivates: the expander literature reaches for VLB and flowlet
//! switching, which are "uncommon or novel" mechanisms; Shortest-Union(2)
//! aims to match them with stock ECMP machinery.
//!
//! Schemes: per-flow ECMP, Shortest-Union(2), flow-level VLB (Valiant),
//! and ECMP with flowlet switching (LetFlow-style, 200 µs gap).
//!
//! `cargo run -p spineless-bench --release --bin lb_schemes`

use spineless_bench::parse_args;
use spineless_core::fct::{generate_workload, TmKind};
use spineless_core::stats::{median, ns_to_ms, percentile};
use spineless_core::topos::EvalTopos;
use spineless_routing::{Forwarding, ForwardingState, RoutingScheme, Vlb};
use spineless_sim::{SimConfig, Simulation};
use spineless_workload::FlowSet;

fn run<F: Forwarding>(
    topo: &spineless_topo::Topology,
    fs: F,
    cfg: SimConfig,
    flows: &FlowSet,
    seed: u64,
) -> (f64, f64) {
    let mut sim = Simulation::new(topo, fs, cfg, seed);
    for f in &flows.flows {
        sim.add_flow(f.src, f.dst, f.bytes, f.start_ns)
            .expect("valid flow");
    }
    let r = sim.run();
    let fcts: Vec<f64> = r.fcts().iter().map(|&ns| ns_to_ms(ns)).collect();
    (
        median(&fcts).unwrap_or(f64::NAN),
        percentile(&fcts, 99.0).unwrap_or(f64::NAN),
    )
}

fn main() {
    let (scale, seed) = parse_args();
    let topos = EvalTopos::build(scale, seed);
    let dring = &topos.dring;
    let window = 2_000_000;
    let offered = topos.offered_bytes(0.3, window, 10.0);
    println!("== load-balancing schemes on {} ==", dring.name);
    println!(
        "{:<24} {:>13} {:>13} {:>13} {:>13} {:>13} {:>13}",
        "scheme", "A2A med", "A2A p99", "R2R med", "R2R p99", "skew med", "skew p99"
    );
    for scheme in ["ecmp", "shortest-union(2)", "vlb", "ecmp+flowlets"] {
        let mut row = format!("{scheme:<24}");
        for tm in [TmKind::Uniform, TmKind::RackToRack, TmKind::FbSkewed] {
            let budget = if tm == TmKind::RackToRack {
                offered * 3
            } else {
                offered
            };
            let flows = generate_workload(tm, dring, budget, window, seed);
            let base = SimConfig::default();
            let (med, p99) = match scheme {
                "ecmp" => run(
                    dring,
                    ForwardingState::build(&dring.graph, RoutingScheme::Ecmp),
                    base,
                    &flows,
                    seed,
                ),
                "shortest-union(2)" => run(
                    dring,
                    ForwardingState::build(&dring.graph, RoutingScheme::ShortestUnion(2)),
                    base,
                    &flows,
                    seed,
                ),
                "vlb" => run(dring, Vlb::build(&dring.graph), base, &flows, seed),
                _ => run(
                    dring,
                    ForwardingState::build(&dring.graph, RoutingScheme::Ecmp),
                    SimConfig {
                        flowlet_gap_ns: Some(200_000),
                        ..base
                    },
                    &flows,
                    seed,
                ),
            };
            row.push_str(&format!(" {med:>6.3}{p99:>7.3}"));
        }
        println!("{row}");
    }
    println!("\nexpected shape: VLB tames R2R/skew like SU(2) but pays double");
    println!("paths on uniform traffic; flowlets help only when bursts have");
    println!("gaps; SU(2) gets the diversity with stock per-flow ECMP —");
    println!("the paper's deployability argument in one table.");
}
