//! Transport ablation: the paper's plain TCP (NewReno) vs DCTCP on the
//! same topologies and workloads.
//!
//! §5.3 fixes the transport to TCP; this extension asks how much of the
//! topology story survives a modern ECN-based transport — i.e. whether the
//! flat-topology advantage is a TCP artifact (it is not: the bottleneck
//! structure is topological).
//!
//! `cargo run -p spineless-bench --release --bin transports`

use spineless_bench::parse_args;
use spineless_core::fct::{generate_workload, run_cell, TmKind};
use spineless_core::topos::EvalTopos;
use spineless_routing::RoutingScheme;
use spineless_sim::types::Transport;
use spineless_sim::SimConfig;

fn main() {
    let (scale, seed) = parse_args();
    let topos = EvalTopos::build(scale, seed);
    let window = 2_000_000;
    let offered = topos.offered_bytes(0.3, window, 10.0);
    println!("== NewReno vs DCTCP, skewed + uniform traffic ==");
    println!(
        "{:<44} {:>10} {:>12} {:>12} {:>10} {:>8}",
        "combo", "transport", "median(ms)", "p99(ms)", "drops", "flows"
    );
    for (topo, scheme) in [
        (&topos.leafspine, RoutingScheme::Ecmp),
        (&topos.dring, RoutingScheme::ShortestUnion(2)),
    ] {
        for tm in [TmKind::FbSkewed, TmKind::Uniform] {
            for transport in [Transport::NewReno, Transport::Dctcp] {
                let cfg = SimConfig {
                    transport,
                    ..Default::default()
                };
                let flows = generate_workload(tm, topo, offered, window, seed);
                let cell = run_cell(topo, scheme, &flows, tm.label(), cfg, seed);
                println!(
                    "{:<44} {:>10} {:>12.3} {:>12.3} {:>10} {:>8}",
                    format!("{} / {}", topo.name, tm.label()),
                    match transport {
                        Transport::NewReno => "newreno",
                        Transport::Dctcp => "dctcp",
                        Transport::GoBackN => "gbn",
                    },
                    cell.median_ms,
                    cell.p99_ms,
                    cell.dropped,
                    cell.flows
                );
            }
        }
    }
    println!("\nexpected shape: DCTCP slashes drops and tail latency for both");
    println!("topologies, but the flat network keeps its relative advantage on");
    println!("skewed traffic — the gain is structural, not a transport artifact.");
}
