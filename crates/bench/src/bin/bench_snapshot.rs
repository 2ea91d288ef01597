//! Performance snapshot: fixed-seed small-scale workloads timing each
//! layer's retained reference path (reference-heap scheduler, full-scan
//! fluid solver, serial heap-Dijkstra routing builds, reference per-packet
//! datapath) against the current default (delay-lane scheduler,
//! saturation-ordered and link-major solvers, pooled bucket-queue label
//! builds, fast datapath: FIB hot-cache + RTO timer wheel + terminal-TxDone
//! elision).
//! The Fig. 4 grid runs through `run_fig4` under both schedulers; the
//! Fig. 5 panel is timed on its own. Writes `BENCH_sim.json` (wall time,
//! events/sec, pkt-hops/sec, cells/sec, speedups) and prints a summary.
//! The fluid-solver and routing-build pairs take milliseconds a run, so
//! each reports the median, min and max of [`RUNS`] alternating
//! runs per side, and how many of those pairs the fast side won; every
//! other timing is one run per side.
//!
//! These are the layer pairs no `spinebench` workload isolates. The
//! at-scale sharded engine, the hybrid open-loop regime, the design
//! sweep and the lossless incast are timed end to end, with repeats, by
//! `spinebench`'s `a2a_production`, `hybrid_openloop`, `design_sweep`
//! and `pfc_incast` workloads (`bash crates/benchmark/run.sh`).
//!
//! Build with `--features count-allocs` to additionally report measured
//! allocations per packet-hop for both datapaths (a counting global
//! allocator; the field is omitted otherwise).
//!
//! Both paths are measured in one invocation on the same machine, so the
//! speedup figures are self-contained. The "before" paths are the real
//! shipped implementations (`Scheduler::ReferenceHeap`,
//! `Datapath::Reference`, `max_min_rates_reference`,
//! `ForwardingState::build_reference`), not simulations of old code.
//! Every before/after pair is asserted byte-identical before the ratio is
//! reported.
//!
//! `cargo run -p spineless-bench --release --bin bench_snapshot [-- --seed N]`

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use spineless_bench::parse_seed;
use spineless_core::fct::{generate_workload, run_fig4, FctCell, FctConfig, TmKind};
use spineless_core::throughput::{cs_axis_values, run_fig5_panel};
use spineless_core::{EvalTopos, Scale};
use spineless_fluid::{
    max_min_rates, max_min_rates_reference, max_min_rates_with, FluidScratch, LinkSpace,
};
use spineless_graph::par;
use spineless_routing::{Forwarding, ForwardingState, RoutingScheme};
use spineless_sim::{Datapath, FailureSchedule, Scheduler, SimConfig, Simulation};
use spineless_topo::dring::DRing;
use std::sync::Arc;
use std::time::Instant;

/// Counts every allocation when built with `--features count-allocs`, so
/// `sim_datapath.allocs_per_pkt_hop` is a measured number.
#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: spineless_bench::alloc_count::CountingAlloc =
    spineless_bench::alloc_count::CountingAlloc;

/// Allocation counter reading, or `None` without the feature.
fn alloc_reading() -> Option<u64> {
    #[cfg(feature = "count-allocs")]
    {
        Some(spineless_bench::alloc_count::allocations())
    }
    #[cfg(not(feature = "count-allocs"))]
    {
        None
    }
}

/// Runs per side of each repeated pair: a pair's one-run timings disagree
/// from one invocation to the next by more than the speedups they report.
const RUNS: usize = 7;

/// One side's wall times over [`RUNS`] runs.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut walls: Vec<f64>) -> Spread {
        walls.sort_by(f64::total_cmp);
        Spread {
            median: walls[walls.len() / 2],
            min: walls[0],
            max: walls[walls.len() - 1],
        }
    }

    fn json(&self) -> String {
        format!(
            r#"{{ "median": {:.5}, "min": {:.5}, "max": {:.5} }}"#,
            self.median, self.min, self.max
        )
    }
}

/// A repeated before/after timing: both sides' spreads, the pairs the
/// fast side won, and each side's last output (for the identity check).
struct Pair<R, F> {
    reference: Spread,
    fast: Spread,
    fast_wins: usize,
    last: (R, F),
}

impl<R, F> Pair<R, F> {
    /// Median-over-median speedup of the fast side.
    fn speedup(&self) -> f64 {
        self.reference.median / self.fast.median
    }
}

/// Wall time of one call, and its output.
fn timed<T>(f: &mut impl FnMut() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Times [`RUNS`] pairs of `reference` and `fast` runs, alternating which
/// side runs first so neither always inherits the other's warm caches.
fn timed_pair<R, F>(mut reference: impl FnMut() -> R, mut fast: impl FnMut() -> F) -> Pair<R, F> {
    let (mut ref_walls, mut fast_walls, mut fast_wins) = (Vec::new(), Vec::new(), 0);
    let mut last = None;
    for run in 0..RUNS {
        let ((r, ref_out), (f, fast_out)) = if run % 2 == 0 {
            let r = timed(&mut reference);
            (r, timed(&mut fast))
        } else {
            let f = timed(&mut fast);
            (timed(&mut reference), f)
        };
        fast_wins += usize::from(f < r);
        ref_walls.push(r);
        fast_walls.push(f);
        last = Some((ref_out, fast_out));
    }
    Pair {
        reference: Spread::of(ref_walls),
        fast: Spread::of(fast_walls),
        fast_wins,
        last: last.expect("RUNS > 0"),
    }
}

/// The three max-min kernels on one instance: the full-scan reference,
/// the link-major kernel (`max_min_rates_with`, fresh scratch) and the
/// saturation-ordered one (`max_min_rates`).
struct FluidTimes {
    full_scan: Spread,
    link_major: Spread,
    ordered: Spread,
    /// Runs in which the saturation-ordered kernel beat the link-major one.
    ordered_wins: usize,
}

impl FluidTimes {
    fn json(&self, name: &str, flows: usize, links: usize) -> String {
        format!(
            r#"{{
        "instance": "{name}",
        "flows": {flows},
        "links": {links},
        "full_scan_wall_s": {},
        "link_major_wall_s": {},
        "saturation_ordered_wall_s": {},
        "link_major_speedup": {:.3},
        "saturation_ordered_speedup": {:.3},
        "saturation_ordered_vs_link_major": {:.3},
        "saturation_ordered_wins_vs_link_major": {},
        "results_identical": true
      }}"#,
            self.full_scan.json(),
            self.link_major.json(),
            self.ordered.json(),
            self.full_scan.median / self.link_major.median,
            self.full_scan.median / self.ordered.median,
            self.link_major.median / self.ordered.median,
            self.ordered_wins,
        )
    }
}

/// Times [`RUNS`] solves of `flows` with each of the three kernels,
/// rotating which kernel runs first, and asserts every run's rates equal
/// the reference's bit for bit.
fn time_fluid_kernels(num_links: usize, cap: &[f64], flows: &[Vec<u32>]) -> FluidTimes {
    let mut walls = [Vec::new(), Vec::new(), Vec::new()];
    let mut ordered_wins = 0;
    for run in 0..RUNS {
        let mut rates: [Vec<f64>; 3] = Default::default();
        let mut wall = [0.0; 3];
        for k in 0..3 {
            let side = (run + k) % 3;
            let t0 = Instant::now();
            rates[side] = match side {
                0 => max_min_rates_reference(num_links, cap, flows),
                1 => {
                    let mut r = Vec::new();
                    max_min_rates_with(num_links, cap, flows, &mut FluidScratch::new(), &mut r);
                    r
                }
                _ => max_min_rates(num_links, cap, flows),
            };
            wall[side] = t0.elapsed().as_secs_f64();
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&rates[1]),
            bits(&rates[0]),
            "link-major solver diverged"
        );
        assert_eq!(
            bits(&rates[2]),
            bits(&rates[0]),
            "saturation-ordered solver diverged"
        );
        ordered_wins += usize::from(wall[2] < wall[1]);
        for (w, t) in walls.iter_mut().zip(wall) {
            w.push(t);
        }
    }
    let [full_scan, link_major, ordered] = walls.map(Spread::of);
    FluidTimes {
        full_scan,
        link_major,
        ordered,
        ordered_wins,
    }
}

/// Directed-link lists of one sampled route per server pair, in the fluid
/// solver's link index space.
fn fluid_routes(
    topo: &spineless_topo::Topology,
    fs: &ForwardingState,
    pairs: &[(u32, u32)],
    rng: &mut SmallRng,
) -> Vec<Vec<u32>> {
    let space = LinkSpace::new(topo);
    let mut hops = Vec::new();
    pairs
        .iter()
        .map(|&(s, d)| {
            let (ssw, dsw) = (topo.switch_of(s), topo.switch_of(d));
            let mut links = vec![space.uplink(s)];
            if ssw != dsw {
                assert!(fs.sample_route_into(ssw, dsw, rng, &mut hops), "reachable");
                let mut cur = ssw;
                for &(next, edge) in &hops {
                    links.push(space.switch_link(edge, cur));
                    cur = next;
                }
            }
            links.push(space.downlink(d));
            links
        })
        .collect()
}

fn assert_grids_identical(a: &[FctCell], b: &[FctCell], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: cell counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.median_ms.to_bits(),
            y.median_ms.to_bits(),
            "{what}: median differs"
        );
        assert_eq!(
            x.p99_ms.to_bits(),
            y.p99_ms.to_bits(),
            "{what}: p99 differs"
        );
        assert_eq!(x.dropped, y.dropped, "{what}: drops differ");
    }
}

fn main() {
    let seed = parse_seed();
    let threads = par::host_threads();
    eprintln!("bench_snapshot: seed {seed}, {threads} threads");

    // --- Scheduler microbenchmark: one dense cell, both event queues. ---
    let topos = EvalTopos::build(Scale::Small, seed);
    let flows = generate_workload(TmKind::Uniform, &topos.dring, 8_000_000, 1_000_000, seed);
    let fs = ForwardingState::build(&topos.dring.graph, RoutingScheme::ShortestUnion(2));
    let run_sched = |scheduler| {
        let cfg = SimConfig {
            scheduler,
            ..Default::default()
        };
        let mut sim = Simulation::new(&topos.dring, &fs, cfg, seed);
        for f in &flows.flows {
            sim.add_flow(f.src, f.dst, f.bytes, f.start_ns)
                .expect("valid flow");
        }
        let t0 = Instant::now();
        let r = sim.run();
        (t0.elapsed().as_secs_f64(), r)
    };
    let (lanes_s, lanes_r) = run_sched(Scheduler::Auto);
    let (heap_s, heap_r) = run_sched(Scheduler::ReferenceHeap);
    assert_eq!(lanes_r, heap_r, "schedulers diverged");
    let events = lanes_r.events;
    let sched_speedup = heap_s / lanes_s;
    eprintln!(
        "scheduler: {events} events — delay lanes {:.0} ev/s vs heap {:.0} ev/s ({sched_speedup:.2}x)",
        events as f64 / lanes_s,
        events as f64 / heap_s
    );

    // --- Per-packet datapath: fast (FIB hot-cache, RTO timer wheel,
    // terminal-TxDone elision) vs the retained reference path, on the same
    // workload as the scheduler microbench.
    // The hot-cache is built once *outside* the timed region (the same
    // pollution class fixed for routing-state builds in P1) and handed to
    // both runs' constructor via `with_fib_cache`; the reference run
    // ignores it. ---
    let edges = topos.dring.graph.edges().to_vec();
    let fib = Arc::new(fs.fib_cache(&edges).expect("plane supports a hot cache"));
    let run_datapath = |datapath| {
        let cfg = SimConfig {
            datapath,
            ..Default::default()
        };
        let mut sim = Simulation::with_fib_cache(&topos.dring, &fs, cfg, seed, Some(fib.clone()));
        for f in &flows.flows {
            sim.add_flow(f.src, f.dst, f.bytes, f.start_ns)
                .expect("valid flow");
        }
        let a0 = alloc_reading();
        let t0 = Instant::now();
        let r = sim.run();
        let wall = t0.elapsed().as_secs_f64();
        let allocs = alloc_reading().zip(a0).map(|(a1, a0)| a1 - a0);
        (wall, allocs, r, sim.pkt_hops(), sim.switch_link_tx_bytes())
    };
    let (dp_fast_s, dp_fast_allocs, dp_fast_r, dp_hops, dp_fast_tx) = run_datapath(Datapath::Fast);
    let (dp_ref_s, dp_ref_allocs, dp_ref_r, dp_ref_hops, dp_ref_tx) =
        run_datapath(Datapath::Reference);
    spineless_bench::warn_if_slow_path(
        &dp_fast_r,
        &SimConfig {
            datapath: Datapath::Fast,
            ..Default::default()
        },
        "bench_snapshot/sim_datapath",
    );
    assert_eq!(
        dp_fast_r.fcts(),
        dp_ref_r.fcts(),
        "datapaths diverged: FCTs"
    );
    assert_eq!(
        dp_fast_r.dropped_packets, dp_ref_r.dropped_packets,
        "datapaths diverged: drops"
    );
    assert_eq!(
        dp_fast_r.delivered_bytes, dp_ref_r.delivered_bytes,
        "datapaths diverged: delivered bytes"
    );
    assert_eq!(dp_hops, dp_ref_hops, "datapaths diverged: packet-hops");
    assert_eq!(
        dp_fast_tx, dp_ref_tx,
        "datapaths diverged: per-link tx bytes"
    );
    let dp_speedup = dp_ref_s / dp_fast_s;
    // Measured allocations per packet-hop, or the whole field omitted
    // when built without `count-allocs` — never a JSON null, so numeric
    // consumers can treat presence as "measured".
    let fmt_allocs = |allocs: Option<u64>| match allocs {
        Some(a) => format!(
            r#", "allocs_per_pkt_hop": {:.4}"#,
            a as f64 / dp_hops as f64
        ),
        None => String::new(),
    };
    let (dp_fast_aph, dp_ref_aph) = (fmt_allocs(dp_fast_allocs), fmt_allocs(dp_ref_allocs));
    let show_allocs = |allocs: Option<u64>| match allocs {
        Some(a) => format!("{:.4}", a as f64 / dp_hops as f64),
        None => "off".to_owned(),
    };
    eprintln!(
        "datapath: {dp_hops} pkt-hops — fast {:.0} hops/s vs reference {:.0} hops/s ({dp_speedup:.2}x), allocs/hop fast {} ref {}",
        dp_hops as f64 / dp_fast_s,
        dp_hops as f64 / dp_ref_s,
        show_allocs(dp_fast_allocs),
        show_allocs(dp_ref_allocs)
    );

    // --- Failure recovery: cut the busiest cable mid-run, reconverge
    // after 100 µs, repair at 1.5 ms — same workload as the datapath
    // microbench, fast vs reference datapath on the identical schedule.
    // Exercises the whole dynamic-failure machinery (flush, in-flight
    // drops, plane swap, cache rebuild, restore) under timing. ---
    let fs_arc = Arc::new(fs.clone());
    let busiest_link = dp_fast_tx
        .iter()
        .enumerate()
        .max_by_key(|&(_, &b)| b)
        .map(|(i, _)| i as u32)
        .expect("workload touches at least one switch link");
    let cut_edge = busiest_link >> 1;
    let run_recovery = |datapath| {
        let cfg = SimConfig {
            datapath,
            ..Default::default()
        };
        let mut sim = Simulation::with_fib_cache(&topos.dring, &fs, cfg, seed, Some(fib.clone()));
        for f in &flows.flows {
            sim.add_flow(f.src, f.dst, f.bytes, f.start_ns)
                .expect("valid flow");
        }
        let sched = FailureSchedule::new(100_000)
            .link_down(300_000, cut_edge)
            .link_up(1_500_000, cut_edge);
        sim.set_failure_schedule(&topos.dring, fs_arc.clone(), sched)
            .expect("schedule targets this topology's own edges");
        let t0 = Instant::now();
        let r = sim.run();
        (t0.elapsed().as_secs_f64(), r, sim.pkt_hops())
    };
    let (rec_fast_s, rec_fast_r, rec_hops) = run_recovery(Datapath::Fast);
    let (rec_ref_s, rec_ref_r, rec_ref_hops) = run_recovery(Datapath::Reference);
    assert_eq!(
        rec_fast_r.fcts(),
        rec_ref_r.fcts(),
        "recovery datapaths diverged: FCTs"
    );
    assert_eq!(
        rec_fast_r.dropped_packets, rec_ref_r.dropped_packets,
        "recovery datapaths diverged: drops"
    );
    assert_eq!(
        rec_fast_r.delivered_bytes, rec_ref_r.delivered_bytes,
        "recovery datapaths diverged: delivered bytes"
    );
    assert_eq!(
        rec_hops, rec_ref_hops,
        "recovery datapaths diverged: packet-hops"
    );
    let rec_retransmits: u64 = rec_fast_r.flows.iter().map(|f| f.retransmits as u64).sum();
    let rec_speedup = rec_ref_s / rec_fast_s;
    eprintln!(
        "failure recovery: edge {cut_edge} cut — {} drops, {rec_retransmits} rtx, {} unfinished; fast {rec_fast_s:.3}s vs reference {rec_ref_s:.3}s ({rec_speedup:.2}x)",
        rec_fast_r.dropped_packets,
        rec_fast_r.unfinished()
    );

    // --- Fig. 4 grid end-to-end through `run_fig4`: the reference heap
    // vs the default scheduler, so the ratio is the scheduler's alone. ---
    let fig4_cfg = FctConfig::quick(seed);
    let run_grid = |scheduler| {
        let cfg = FctConfig {
            sim: SimConfig {
                scheduler,
                ..fig4_cfg.sim
            },
            ..fig4_cfg
        };
        let t0 = Instant::now();
        let grid = run_fig4(&cfg);
        (t0.elapsed().as_secs_f64(), grid)
    };
    let (fig4_heap_s, heap_grid) = run_grid(Scheduler::ReferenceHeap);
    // `Auto` is the shipped default, so this measures what users get.
    let (fig4_lanes_s, lanes_grid) = run_grid(Scheduler::Auto);
    assert_grids_identical(&heap_grid, &lanes_grid, "fig4");
    let fig4_cells = lanes_grid.len();
    let fig4_speedup = fig4_heap_s / fig4_lanes_s;
    eprintln!(
        "fig4: {fig4_cells} cells — reference heap {fig4_heap_s:.2}s, delay lanes {fig4_lanes_s:.2}s ({fig4_speedup:.2}x)"
    );

    // --- Fig. 5 panel on the worker pool (the fluid solver itself is
    // timed below). ---
    let values = cs_axis_values(Scale::Small, false);
    let t0 = Instant::now();
    let panel = run_fig5_panel(
        &topos,
        RoutingScheme::ShortestUnion(2),
        &values,
        60_000,
        seed,
    );
    let fig5_s = t0.elapsed().as_secs_f64();
    let fig5_cells = panel.len();
    eprintln!(
        "fig5: {fig5_cells} cells — {:.2} cells/s",
        fig5_cells as f64 / fig5_s
    );

    // --- Fluid solver: the three kernels on a dense C-S instance, and on
    // an instance shaped like `design_sweep`'s probe: the envelope's
    // largest DRing (400 switches of radix 52, 6 ToRs per supernode)
    // under SU(2), with a 2 048-pair server permutation (~700 rounds). ---
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = topos.dring.num_servers();
    let pairs: Vec<(u32, u32)> = (0..4_000u32).map(|i| (i % n, (i * 31 + 17) % n)).collect();
    let mut cs_flows = fluid_routes(&topos.dring, &fs, &pairs, &mut rng);
    for (f, &(s, d)) in cs_flows.iter_mut().zip(&pairs) {
        if s == d {
            f.clear();
        }
    }
    let cs_links = LinkSpace::new(&topos.dring).num_links() as usize;
    let cs = time_fluid_kernels(cs_links, &vec![1.0; cs_links], &cs_flows);
    let probe = DRing::uniform(400 / 6, 6, 52).build();
    let probe_fs = ForwardingState::build(&probe.graph, RoutingScheme::ShortestUnion(2));
    let mut servers: Vec<u32> = (0..probe.num_servers()).collect();
    servers.shuffle(&mut SmallRng::seed_from_u64(seed));
    let probe_pairs: Vec<(u32, u32)> = servers
        .iter()
        .zip(servers.iter().cycle().skip(1))
        .map(|(&s, &d)| (s, d))
        .filter(|&(s, d)| probe.switch_of(s) != probe.switch_of(d))
        .take(2048)
        .collect();
    let probe_flows = fluid_routes(
        &probe,
        &probe_fs,
        &probe_pairs,
        &mut SmallRng::seed_from_u64(seed ^ 0xF1D0),
    );
    let probe_links = LinkSpace::new(&probe).num_links() as usize;
    let sweep = time_fluid_kernels(probe_links, &vec![1.0; probe_links], &probe_flows);
    for (name, flows, links, t) in [
        ("dense C-S", cs_flows.len(), cs_links, &cs),
        ("sweep probe", probe_flows.len(), probe_links, &sweep),
    ] {
        eprintln!(
            "fluid ({name}): {flows} flows / {links} links — full-scan {:.4}s, link-major {:.4}s, saturation-ordered {:.4}s median of {RUNS} ({:.2}x over link-major, {}/{RUNS} won)",
            t.full_scan.median,
            t.link_major.median,
            t.ordered.median,
            t.link_major.median / t.ordered.median,
            t.ordered_wins
        );
    }

    // --- Routing-state build on the largest Fig. 6 sweep topology:
    // serial heap Dijkstra vs parallel bucket queue, distance labels
    // both. ---
    let big = DRing::scale_config(15).build();
    let scheme = RoutingScheme::ShortestUnion(2);
    let build = timed_pair(
        || ForwardingState::build_reference(&big.graph, scheme),
        || ForwardingState::build(&big.graph, scheme),
    );
    let (build_ref, build_fast) = &build.last;
    assert_eq!(build_fast, build_ref, "routing-state builds diverged");
    let big_switches = big.num_switches();
    let build_heap_bytes = build_fast.heap_bytes();
    eprintln!(
        "routing build: {big_switches} switches su2 — reference {:.4}s vs parallel bucket queue {:.4}s median of {RUNS} ({:.2}x, {}/{RUNS} won), {build_heap_bytes} B of labels",
        build.reference.median,
        build.fast.median,
        build.speedup(),
        build.fast_wins
    );

    // Hand-rolled JSON: the workspace deliberately carries no serde_json
    // dependency, and the document is flat enough that format! suffices.
    let json = format!(
        r#"{{
  "schema": "bench_snapshot/v14",
  "seed": {seed},
  "host_threads": {threads},
  "scheduler_microbench": {{
    "workload": "fig4-style A2A on DRing su2, 8 MB offered",
    "events": {events},
    "delay_lanes": {{ "wall_s": {lanes_s:.4}, "events_per_sec": {lanes_eps:.0} }},
    "reference_heap": {{ "wall_s": {heap_s:.4}, "events_per_sec": {heap_eps:.0} }},
    "speedup": {sched_speedup:.3},
    "results_identical": true
  }},
  "sim_datapath": {{
    "workload": "fig4-style A2A on DRing su2, 8 MB offered",
    "pkt_hops": {dp_hops},
    "fib_cache_prewarmed": true,
    "fast": {{ "wall_s": {dp_fast_s:.4}, "pkt_hops_per_sec": {dp_fast_hps:.0}, "events": {dp_fast_events}, "events_per_sec": {dp_fast_eps:.0}{dp_fast_aph} }},
    "reference": {{ "wall_s": {dp_ref_s:.4}, "pkt_hops_per_sec": {dp_ref_hps:.0}, "events": {dp_ref_events}, "events_per_sec": {dp_ref_eps:.0}{dp_ref_aph} }},
    "speedup": {dp_speedup:.3},
    "results_identical": true
  }},
  "failure_recovery": {{
    "workload": "fig4-style A2A on DRing su2, 8 MB offered; busiest cable cut at 300 us, repaired at 1.5 ms, 100 us reconvergence",
    "cut_edge": {cut_edge},
    "pkt_hops": {rec_hops},
    "dropped_packets": {rec_drops},
    "retransmits": {rec_retransmits},
    "unfinished_flows": {rec_unfinished},
    "fast": {{ "wall_s": {rec_fast_s:.4}, "pkt_hops_per_sec": {rec_fast_hps:.0} }},
    "reference": {{ "wall_s": {rec_ref_s:.4}, "pkt_hops_per_sec": {rec_ref_hps:.0} }},
    "speedup": {rec_speedup:.3},
    "results_identical": true
  }},
  "fig4_small_grid": {{
    "cells": {fig4_cells},
    "reference_heap": {{ "wall_s": {fig4_heap_s:.3}, "cells_per_sec": {fig4_heap_cps:.3} }},
    "delay_lanes": {{ "wall_s": {fig4_lanes_s:.3}, "cells_per_sec": {fig4_lanes_cps:.3} }},
    "speedup": {fig4_speedup:.3},
    "results_identical": true
  }},
  "fig5_small_panel": {{
    "cells": {fig5_cells},
    "wall_s": {fig5_s:.3},
    "cells_per_sec": {fig5_cps:.3}
  }},
  "fluid_solver": {{
    "runs": {RUNS},
    "instances": [
      {fluid_cs},
      {fluid_sweep}
    ]
  }},
  "routing_build": {{
    "topology": "dring scale_config(15), largest fig6 sweep point",
    "switches": {big_switches},
    "scheme": "shortest-union(2)",
    "runs": {RUNS},
    "reference": {{ "engine": "serial heap dijkstra, distance labels", "wall_s": {build_ref} }},
    "fast": {{ "engine": "parallel bucket queue, distance labels", "wall_s": {build_fast} }},
    "speedup": {build_speedup:.3},
    "fast_wins": {build_wins},
    "heap_bytes": {build_heap_bytes},
    "results_identical": true
  }}
}}
"#,
        lanes_eps = events as f64 / lanes_s,
        heap_eps = events as f64 / heap_s,
        dp_fast_hps = dp_hops as f64 / dp_fast_s,
        dp_ref_hps = dp_hops as f64 / dp_ref_s,
        dp_fast_events = dp_fast_r.events,
        dp_ref_events = dp_ref_r.events,
        dp_fast_eps = dp_fast_r.events as f64 / dp_fast_s,
        dp_ref_eps = dp_ref_r.events as f64 / dp_ref_s,
        rec_drops = rec_fast_r.dropped_packets,
        rec_unfinished = rec_fast_r.unfinished(),
        rec_fast_hps = rec_hops as f64 / rec_fast_s,
        rec_ref_hps = rec_hops as f64 / rec_ref_s,
        fig4_heap_cps = fig4_cells as f64 / fig4_heap_s,
        fig4_lanes_cps = fig4_cells as f64 / fig4_lanes_s,
        fig5_cps = fig5_cells as f64 / fig5_s,
        fluid_cs = cs.json("dense C-S on the small DRing", cs_flows.len(), cs_links),
        fluid_sweep = sweep.json(
            "design_sweep probe: DRing(66 x 6, radix 52), SU(2), 2048-pair permutation",
            probe_flows.len(),
            probe_links
        ),
        build_ref = build.reference.json(),
        build_fast = build.fast.json(),
        build_speedup = build.speedup(),
        build_wins = build.fast_wins,
    );
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("{json}");
    eprintln!("wrote BENCH_sim.json");
}
