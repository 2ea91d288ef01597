//! Live failure drill (paper §7, "Impact of failures"): cut a cable *under
//! a running flow*, let the control plane reconverge mid-run, and watch TCP
//! recover over the rerouted fabric — then compare against a control plane
//! that never reacts (a pure blackhole) and against the static
//! control-plane analysis.
//!
//! The drill:
//!
//! 1. **Probe run** — race the victim flow over the healthy DRing and read
//!    the per-link byte counters to find the cable its path actually uses
//!    (same seed ⇒ same ECMP hash ⇒ same path in every later run).
//! 2. **Reconvergence run** — cut that cable mid-transfer; after a 100 µs
//!    reconvergence delay the switches forward over a routing state rebuilt
//!    for the degraded fabric (`ForwardingState::masked`), and the flow
//!    finishes on the detour.
//! 3. **Blackhole run** — the identical cut, but reconvergence never comes
//!    within the horizon: every retransmission dies on the dead cable and
//!    the flow burns an RTO (exponentially backed off) each round.
//!
//! Reconvergence must complete the flow with *strictly fewer*
//! retransmissions than the blackhole baseline accumulates — the
//! data-plane payoff of flatness: rerouting is local, no spine to resync.
//!
//! Run with: `cargo run --release --example failure_drill`
//! CI smoke mode (small, asserts only): `cargo run --example failure_drill -- --quick`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use spineless::core::fct::{generate_workload, run_cell, TmKind};
use spineless::core::recovery::{run_recovery_sweep, RecoveryConfig};
use spineless::graph::bfs;
use spineless::prelude::*;
use spineless::routing::failures::{assess, FailurePlan};
use spineless::sim::FlowRecord;
use std::sync::Arc;

/// What one drill run produced for the victim flow.
struct DrillOutcome {
    victim: FlowRecord,
    bystander: FlowRecord,
    dropped: u64,
    used_fib_cache: bool,
}

/// Runs victim + bystander over `topo` with `schedule` (empty = healthy).
fn drill_run(
    topo: &Topology,
    fs: &Arc<ForwardingState>,
    victim: (u32, u32, u64),
    bystander: (u32, u32, u64),
    schedule: Option<FailureSchedule>,
    seed: u64,
) -> DrillOutcome {
    let cfg = SimConfig {
        max_time_ns: 30_000_000_000,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(topo, fs.clone(), cfg, seed);
    sim.add_flow(victim.0, victim.1, victim.2, 0)
        .expect("victim endpoints valid");
    sim.add_flow(bystander.0, bystander.1, bystander.2, 0)
        .expect("bystander endpoints valid");
    if let Some(sched) = schedule {
        sim.set_failure_schedule(topo, fs.clone(), sched)
            .expect("schedule targets this topology's own edges");
    }
    let r = sim.run();
    DrillOutcome {
        victim: r.flows[0],
        bystander: r.flows[1],
        dropped: r.dropped_packets,
        used_fib_cache: r.used_fib_cache,
    }
}

fn live_drill(quick: bool) {
    let topo = DRing::uniform(6, 3, 32).build();
    let fs = Arc::new(ForwardingState::build(
        &topo.graph,
        RoutingScheme::ShortestUnion(2),
    ));
    let seed = 11;

    // Victim: rack 0 to a maximally distant rack (a multi-hop path, so a
    // mid-path cable exists to cut). Bystander: an intra-rack flow whose
    // packets never touch a switch-switch cable.
    let racks = topo.racks();
    let dist = bfs::all_pairs_distances(&topo.graph);
    let far_rack = *racks
        .iter()
        .max_by_key(|&&r| dist[racks[0] as usize][r as usize])
        .expect("topology has racks");
    let src = topo
        .servers_on(racks[0])
        .next()
        .expect("rack 0 has servers");
    let dst = topo
        .servers_on(far_rack)
        .next()
        .expect("far rack has servers");
    let by_pair: Vec<u32> = topo.servers_on(racks[1]).take(2).collect();
    let victim = (src, dst, 1_000_000u64);
    let bystander = (by_pair[0], by_pair[1], 250_000u64);

    // 1. Probe: find the cable the victim's path crosses (same seed pins
    // the same ECMP hash, hence the same path, in the runs below). The
    // bystander stays intra-rack, so the busiest switch-switch link
    // belongs to the victim.
    let cfg = SimConfig::default();
    let mut probe = Simulation::new(&topo, fs.clone(), cfg, seed);
    probe
        .add_flow(victim.0, victim.1, victim.2, 0)
        .expect("victim endpoints valid");
    probe
        .add_flow(bystander.0, bystander.1, bystander.2, 0)
        .expect("bystander endpoints valid");
    let probe_r = probe.run();
    let tx = probe.switch_link_tx_bytes();
    let busiest = tx
        .iter()
        .enumerate()
        .max_by_key(|&(_, &b)| b)
        .map(|(i, _)| i as u32)
        .expect("victim crosses the fabric");
    let cut_edge = busiest >> 1;
    let healthy_fct = probe_r.flows[0].fct_ns.expect("healthy run completes");
    // Cut mid-transfer: halfway through the healthy completion time.
    let cut_at = healthy_fct / 2;

    // 2. Reconvergence: the control plane reacts 100 µs after the cut.
    let reconv = drill_run(
        &topo,
        &fs,
        victim,
        bystander,
        Some(FailureSchedule::new(100_000).link_down(cut_at, cut_edge)),
        seed,
    );
    // 3. Blackhole: the identical cut, but reconvergence is an hour out —
    // far beyond the 30 s horizon, so it never arrives.
    let blackhole = drill_run(
        &topo,
        &fs,
        victim,
        bystander,
        Some(FailureSchedule::new(3_600_000_000_000).link_down(cut_at, cut_edge)),
        seed,
    );

    // The invariants CI pins (and the paper's point).
    assert!(
        reconv.victim.fct_ns.is_some(),
        "victim must finish once routing reconverges around the cut"
    );
    assert!(
        blackhole.victim.fct_ns.is_none(),
        "victim cannot finish while the blackhole persists"
    );
    assert!(
        reconv.victim.retransmits < blackhole.victim.retransmits,
        "reconvergence must cost strictly fewer retransmissions \
         ({} vs {})",
        reconv.victim.retransmits,
        blackhole.victim.retransmits
    );
    for (label, o) in [("reconvergence", &reconv), ("blackhole", &blackhole)] {
        assert!(
            o.bystander.fct_ns.is_some() && o.bystander.retransmits == 0,
            "{label}: intra-rack bystander must be untouched by the cut"
        );
        assert!(
            o.used_fib_cache,
            "{label}: fast datapath lost its FIB hot-cache"
        );
    }

    if quick {
        println!(
            "failure_drill --quick: OK (victim recovered via reconvergence: \
             fct {:.3} ms, {} rtx vs {} rtx blackholed; bystander clean)",
            reconv.victim.fct_ns.expect("asserted above") as f64 / 1e6,
            reconv.victim.retransmits,
            blackhole.victim.retransmits
        );
        return;
    }

    println!("== live drill: cable cut under a running flow ==");
    println!(
        "victim {src}->{dst} (1 MB), cable {cut_edge} cut at {:.3} ms, healthy fct {:.3} ms",
        cut_at as f64 / 1e6,
        healthy_fct as f64 / 1e6
    );
    println!(
        "{:<14} {:>10} {:>6} {:>9} {:>7}",
        "control plane", "fct ms", "rtx", "timeouts", "drops"
    );
    for (label, o) in [("reconverge", &reconv), ("never (hole)", &blackhole)] {
        println!(
            "{label:<14} {:>10} {:>6} {:>9} {:>7}",
            o.victim
                .fct_ns
                .map(|ns| format!("{:.3}", ns as f64 / 1e6))
                .unwrap_or_else(|| "—".into()),
            o.victim.retransmits,
            o.victim.timeouts,
            o.dropped
        );
    }
    println!(
        "bystander (intra-rack) unaffected in both runs: fct {:.3} ms, 0 rtx",
        reconv.bystander.fct_ns.expect("asserted above") as f64 / 1e6
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    live_drill(quick);
    if quick {
        return;
    }

    let topo = DRing::uniform(8, 3, 32).build();
    println!(
        "\ntopology: {} ({} racks, {} links)",
        topo.name,
        topo.num_racks(),
        topo.num_links()
    );

    // Control-plane view: what does each failure level cost structurally?
    println!("\n== reconvergence & structure under random link cuts ==");
    println!(
        "{:>6} {:>9} {:>12} {:>12} {:>10} {:>9}",
        "cut %", "discon.", "mean cost", "(baseline)", "min div.", "BGP rnds"
    );
    for fraction in [0.05, 0.10, 0.20, 0.30] {
        let mut rng = SmallRng::seed_from_u64(7 + (fraction * 100.0) as u64);
        let plan = FailurePlan::random_links(&topo, fraction, &mut rng);
        let i = assess(&topo, RoutingScheme::ShortestUnion(2), &plan, 60).expect("assess");
        println!(
            "{:>6.0} {:>9} {:>12.3} {:>12.3} {:>10} {:>9}",
            fraction * 100.0,
            i.disconnected_pairs,
            i.mean_cost_after,
            i.mean_cost_before,
            i.min_diversity_after,
            i.bgp_rounds_after
        );
    }

    // Data-plane sweep (experiment X1b): live cuts with reconvergence,
    // leaf-spine vs the flat fabrics.
    println!("\n== live-cut FCT sweep (cut mid-run, 100 us reconvergence) ==");
    println!(
        "{:>28} {:>6} {:>5} {:>9} {:>9} {:>6} {:>6}",
        "combo", "cut %", "cut", "median ms", "p99 ms", "rtx", "unfin"
    );
    for cell in run_recovery_sweep(&RecoveryConfig::quick(21)) {
        println!(
            "{:>28} {:>6.0} {:>5} {:>9.3} {:>9.3} {:>6} {:>6}",
            format!("{}/{}", cell.topo, cell.routing),
            cell.fail_fraction * 100.0,
            cell.links_cut,
            cell.summary.median_ms,
            cell.summary.p99_ms,
            cell.summary.retransmits,
            cell.summary.unfinished
        );
    }

    // Static before/after comparison retained for contrast with the live
    // sweep above: rebuild on the already-degraded fabric.
    let mut rng = SmallRng::seed_from_u64(21);
    let plan = FailurePlan::random_links(&topo, 0.25, &mut rng);
    let degraded = plan.apply(&topo).expect("degraded topology");
    let window = 2_000_000;
    let offered = (0.18 * topo.num_servers() as f64 * 1.25 * window as f64) as u64;
    println!("\n== static FCT impact of losing 25% of cables (uniform traffic) ==");
    for (label, t) in [("healthy", &topo), ("degraded", &degraded)] {
        let flows = generate_workload(TmKind::Uniform, t, offered, window, 5);
        let cell = run_cell(
            t,
            RoutingScheme::ShortestUnion(2),
            &flows,
            "A2A",
            SimConfig::default(),
            5,
        );
        println!(
            "{label:<9} median={:.3} ms  p99={:.3} ms  drops={}  ({} flows)",
            cell.median_ms, cell.p99_ms, cell.dropped, cell.flows
        );
    }

    // Switch failure: power off one ToR.
    let plan = FailurePlan::random_switches(&topo, 1, &mut rng);
    let i = assess(&topo, RoutingScheme::ShortestUnion(2), &plan, 60).expect("assess");
    println!(
        "\nsingle-ToR failure: {} surviving rack pairs stay connected, \
         mean cost {:.3} (was {:.3}), BGP reconverges in {} rounds",
        i.surviving_pairs, i.mean_cost_after, i.mean_cost_before, i.bgp_rounds_after
    );
    println!("\nflatness pays off under failure: no switch is special, so losing");
    println!("one degrades capacity smoothly instead of severing a tier — and the");
    println!("live drill shows recovery is a detour away, not a resync away.");
}
