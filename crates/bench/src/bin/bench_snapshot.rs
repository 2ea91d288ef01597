//! Performance snapshot: fixed-seed small-scale workloads timing each
//! layer's retained reference path (reference-heap scheduler, full-scan
//! fluid solver, serial heap-Dijkstra routing builds, from-scratch failure
//! recompute, nested next-hop tables, reference per-packet datapath)
//! against the current default (delay-lane scheduler, active-list solver,
//! pooled bucket-queue CSR builds, incremental failure recompute, fast
//! datapath: FIB hot-cache + RTO timer wheel + terminal-TxDone elision).
//! The Fig. 4 grid runs through `run_fig4` under both schedulers; the
//! Fig. 5 panel is timed on its own. Writes `BENCH_sim.json` (wall time,
//! events/sec, pkt-hops/sec, cells/sec, speedups) and prints a summary.
//! Tier sections add the at-scale sharded engine, the hybrid open-loop
//! regime, and the design-search envelope sweep (per-cell cold rebuilds
//! vs structural memoization + dominance pruning).
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
use rand::SeedableRng;
use spineless_bench::{parse_args_quick, warn_if_serial_fallback};
use spineless_core::fct::{generate_workload, run_fig4, FctCell, FctConfig, TmKind};
use spineless_core::search::{run_search, run_search_reference, SearchResult, SearchSpec};
use spineless_core::throughput::{cs_axis_values, run_fig5_panel};
use spineless_core::{EvalTopos, Scale};
use spineless_fluid::{max_min_rates, max_min_rates_reference, LinkSpace};
use spineless_graph::par;
use spineless_routing::failures::{incremental_rebuild, FailurePlan};
use spineless_routing::{Forwarding, ForwardingState, RoutingScheme};
use spineless_sim::{
    estimate_events, Datapath, FailureSchedule, HybridConfig, HybridSimulation, Scheduler,
    SimConfig, Simulation,
};
use spineless_topo::dring::DRing;
use spineless_workload::pareto::ParetoFlowSizes;
use spineless_workload::{poisson_from_tm, TrafficMatrix};
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

/// One at-scale tier (`scale=paper` / `scale=production`): the regime
/// sharding exists for. Measures the serial loop (one shard) under both
/// schedulers (asserted bit-identical) and the window protocol across
/// shard counts on one heavy uniform-TM DRing workload, asserts every
/// shard count equals the serial loop on the whole report, event count
/// included, and runs the workload once more unpinned, recording the
/// shard count that run used. Returns a JSON fragment
/// (`,\n  "scale_<tier>": {...}`).
fn run_scale_tier(scale: Scale, quick: bool, seed: u64, threads: usize) -> String {
    let label = match scale {
        Scale::Paper => "paper",
        Scale::Production => "production",
        Scale::Small => unreachable!("small tier is the base snapshot"),
    };
    let topo = EvalTopos::dring_config(scale).build();
    let scheme = RoutingScheme::ShortestUnion(2);
    let fs = Arc::new(ForwardingState::build(&topo.graph, scheme));
    // Production pins ≥10⁵ flows regardless of --quick — the tier's whole
    // point; paper shrinks under --quick so CI stays fast.
    let target_flows: u64 = match (scale, quick) {
        (Scale::Production, _) => 100_000,
        (Scale::Paper, true) => 6_000,
        (Scale::Paper, false) => 25_000,
        (Scale::Small, _) => unreachable!(),
    };
    let window_ns: u64 = if scale == Scale::Production {
        2_000_000
    } else {
        1_000_000
    };
    let sizes = ParetoFlowSizes::paper();
    let offered = (target_flows as f64 * sizes.truncated_mean()) as u64;
    let flows = generate_workload(TmKind::Uniform, &topo, offered, window_ns, seed);
    let nflows = flows.flows.len();
    let cfg = SimConfig::default();
    let est = estimate_events(flows.flows.iter().map(|f| f.bytes), cfg.mss_bytes, false);
    eprintln!(
        "scale={label}: dring {} racks / {} servers, {nflows} flows over {window_ns} ns, ~{est} est events"
    , topo.num_racks(), topo.num_servers());

    // Serial loop, both schedulers (identical results by construction).
    let run_serial = |scheduler| {
        let cfg = SimConfig { scheduler, ..cfg };
        let mut sim = Simulation::new(&topo, &*fs, cfg, seed);
        sim.set_shards(1);
        for f in &flows.flows {
            sim.add_flow(f.src, f.dst, f.bytes, f.start_ns)
                .expect("valid flow");
        }
        let t0 = Instant::now();
        let r = sim.run();
        (
            t0.elapsed().as_secs_f64(),
            (r, sim.pkt_hops(), sim.switch_link_tx_bytes()),
        )
    };
    let (heap_s, heap_out) = run_serial(Scheduler::ReferenceHeap);
    let (lanes_s, lanes_out) = run_serial(Scheduler::Auto);
    assert_eq!(
        lanes_out, heap_out,
        "scale={label}: serial schedulers diverged"
    );
    let serial_events = heap_out.0.events;
    eprintln!(
        "scale={label}: serial heap {heap_s:.2}s ({:.2e} ev/s) vs delay lanes {lanes_s:.2}s ({:.2e} ev/s)",
        serial_events as f64 / heap_s,
        serial_events as f64 / lanes_s
    );

    // The window protocol across shard counts (one shard is the serial
    // loop again) — every count must equal the serial loop on the whole
    // report, event count included (the at-scale equivalence check, on
    // top of the engine tests and proptest).
    let shard_counts = [1u32, 2, 4, 8];
    let mut rows = String::new();
    let mut shard_walls: Vec<(u32, f64)> = Vec::new();
    let best_serial = heap_s.min(lanes_s);
    for &k in &shard_counts {
        let mut sim = Simulation::new(&topo, fs.clone(), cfg, seed);
        sim.set_shards(k);
        for f in &flows.flows {
            sim.add_flow(f.src, f.dst, f.bytes, f.start_ns)
                .expect("valid flow");
        }
        let t0 = Instant::now();
        let r = sim.run();
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(
            (r, sim.pkt_hops(), sim.switch_link_tx_bytes()),
            heap_out,
            "scale={label}: sharded engine diverged from the serial engine at {k} shards"
        );
        eprintln!(
            "scale={label}: sharded k={k} {wall:.2}s ({:.2e} ev/s, {:.2}x vs best serial)",
            serial_events as f64 / wall,
            best_serial / wall
        );
        if !rows.is_empty() {
            rows.push_str(",\n      ");
        }
        rows.push_str(&format!(
            r#"{{ "shards": {k}, "wall_s": {wall:.3}, "events_per_sec": {:.0}, "speedup_vs_best_serial": {:.3} }}"#,
            serial_events as f64 / wall,
            best_serial / wall
        ));
        shard_walls.push((k, wall));
    }
    let phops = heap_out.1;

    // Adaptive selection: an unpinned run, and the shard count it used.
    let mut sim = Simulation::new(&topo, fs.clone(), cfg, seed);
    for f in &flows.flows {
        sim.add_flow(f.src, f.dst, f.bytes, f.start_ns)
            .expect("valid flow");
    }
    let t0 = Instant::now();
    let r = sim.run();
    let adaptive_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        (r, sim.pkt_hops(), sim.switch_link_tx_bytes()),
        heap_out,
        "scale={label}: the adaptive run diverged from the serial loop"
    );
    let shards = sim.shards();
    eprintln!(
        "scale={label}: adaptive {shards} shard(s) {adaptive_s:.2}s ({:.2}x vs best serial)",
        best_serial / adaptive_s
    );
    warn_if_serial_fallback(scale, shards, &format!("bench_snapshot/scale_{label}"));
    let choice_label = if shards == 1 {
        "serial".to_owned()
    } else {
        format!("sharded_{shards}")
    };
    let speedup_4 = shard_walls
        .iter()
        .find(|&&(k, _)| k == 4)
        .map(|&(_, w)| best_serial / w)
        .expect("4-shard run present");

    format!(
        r#",
  "scale_{label}": {{
    "topology": "dring {racks} racks / {servers} servers, shortest-union(2)",
    "workload": "uniform TM, {nflows} flows over {window_ns} ns window",
    "estimated_events": {est},
    "serial_events": {serial_events},
    "serial_heap": {{ "wall_s": {heap_s:.3}, "events_per_sec": {heap_eps:.0} }},
    "serial_lanes": {{ "wall_s": {lanes_s:.3}, "events_per_sec": {lanes_eps:.0} }},
    "serial_results_identical": true,
    "sharded": [
      {rows}
    ],
    "sharded_results_identical": true,
    "sharded_pkt_hops": {phops},
    "adaptive_choice": "{choice_label}",
    "adaptive_wall_s": {adaptive_s:.3},
    "speedup_sharded4_vs_best_serial": {speedup_4:.3},
    "host_threads": {threads},
    "note": "sharded wall-clock speedup requires hardware parallelism; on a single-thread host the selector falls back to serial and the shard curve measures window-protocol overhead only"
  }}"#,
        racks = topo.num_racks(),
        servers = topo.num_servers(),
        heap_eps = serial_events as f64 / heap_s,
        lanes_eps = serial_events as f64 / lanes_s,
    )
}

/// Sorted-slice percentile (nearest-rank).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The hybrid fluid+packet tier: an open-loop Poisson workload (uniform
/// rack TM, paper Pareto sizes) on the paper-scale DRing, pure-packet vs
/// hybrid on the identical flow list. The headline regime: elephants
/// (>= 15 KB, ~85% of bytes) ride the fluid plane, so the packet engine
/// only pays for mice. Records wall-clock speedup and the agreement
/// deltas (mice FCT mean/p50/p99 ratio, switch-link byte ratio) that
/// DESIGN.md §13 documents tolerances for; the full tier asserts the >=5x
/// speedup and the agreement bands, quick mode just records. Full mode
/// adds a million-flow hybrid-only point — the workload size the
/// pure-packet engine cannot touch interactively.
fn run_hybrid_tier(quick: bool, seed: u64) -> String {
    let topo = EvalTopos::dring_config(Scale::Paper).build();
    let scheme = RoutingScheme::ShortestUnion(2);
    let fs = Arc::new(ForwardingState::build(&topo.graph, scheme));
    let sizes = ParetoFlowSizes::paper();
    let tm = TrafficMatrix::uniform(&topo);
    let threshold = 10_000u64;
    // Rate chosen so the expected flow count hits the tier target:
    // lambda = rate / truncated_mean, E[flows] = lambda * window. Both
    // tiers run the same ~385 B/ns offered rate (moderate fabric load —
    // open-loop at saturation diverges and measures backlog, not
    // engines); the full tier just runs 10x longer.
    let target_flows: f64 = if quick { 10_000.0 } else { 100_000.0 };
    let window_ns: u64 = if quick { 1_000_000 } else { 10_000_000 };
    let rate = target_flows * sizes.truncated_mean() / window_ns as f64;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x09E41007);
    let flows = poisson_from_tm(&tm, &topo, rate, &sizes, window_ns, &mut rng);
    let nflows = flows.flows.len();
    let cfg = SimConfig {
        max_time_ns: if quick { 30_000_000 } else { 60_000_000 },
        ..Default::default()
    };
    eprintln!(
        "hybrid_openloop: {nflows} Poisson flows over {window_ns} ns at {rate:.0} B/ns offered"
    );

    let mut pure = Simulation::new(&topo, fs.clone(), cfg, seed);
    // One shard, like the hybrid's packet plane.
    pure.set_shards(1);
    for f in &flows.flows {
        pure.add_flow(f.src, f.dst, f.bytes, f.start_ns)
            .expect("valid flow");
    }
    let t0 = Instant::now();
    let rp = pure.run();
    let pure_s = t0.elapsed().as_secs_f64();
    let pure_bytes: u64 = pure.switch_link_tx_bytes().iter().sum();

    let hcfg = HybridConfig {
        elephant_threshold_bytes: threshold,
        resolve_coalesce_ns: 10_000,
    };
    let mut hyb = HybridSimulation::new(&topo, fs.clone(), cfg, hcfg, seed);
    for f in &flows.flows {
        hyb.add_flow(f.src, f.dst, f.bytes, f.start_ns)
            .expect("valid flow");
    }
    let t0 = Instant::now();
    let rh = hyb.run();
    let hybrid_s = t0.elapsed().as_secs_f64();
    let hybrid_bytes: f64 = hyb.switch_link_total_bytes().iter().sum();

    let speedup = pure_s / hybrid_s;
    // Mice FCT agreement over flows finished in both runs (global flow
    // ids coincide: both engines admit the identical list in order).
    let mut pure_mice: Vec<u64> = Vec::new();
    let mut hyb_mice: Vec<u64> = Vec::new();
    for (fp, fh) in rp.flows.iter().zip(&rh.flows) {
        if fp.bytes < threshold {
            if let (Some(a), Some(b)) = (fp.fct_ns, fh.fct_ns) {
                pure_mice.push(a);
                hyb_mice.push(b);
            }
        }
    }
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    let (mp, mh) = (mean(&pure_mice), mean(&hyb_mice));
    let mice_mean_ratio = mh / mp;
    pure_mice.sort_unstable();
    hyb_mice.sort_unstable();
    let p50_ratio = percentile(&hyb_mice, 0.50) as f64 / percentile(&pure_mice, 0.50) as f64;
    let p99_ratio = percentile(&hyb_mice, 0.99) as f64 / percentile(&pure_mice, 0.99) as f64;
    let bytes_ratio = hybrid_bytes / pure_bytes as f64;
    eprintln!(
        "hybrid_openloop: pure {pure_s:.2}s vs hybrid {hybrid_s:.2}s ({speedup:.2}x), \
         {} resolves; mice mean-FCT ratio {mice_mean_ratio:.3} (p50 {p50_ratio:.3}, p99 {p99_ratio:.3}), \
         switch-link byte ratio {bytes_ratio:.3}",
        rh.resolves
    );
    if !quick {
        // The acceptance bar, plus the documented agreement bands
        // (DESIGN.md §13): the speedup is only meaningful if the hybrid
        // still tells the same statistical story.
        assert!(
            speedup >= 5.0,
            "hybrid_openloop: hybrid must be >=5x faster at the full tier, got {speedup:.2}x"
        );
        // Hybrid mice run *fast*: elephants become smooth rate processes,
        // so the burst congestion (queueing, drops, RTOs) pure-packet
        // mice suffer behind TCP elephants disappears — mostly a tail
        // effect (p99 collapses), pulling the mean below 1. The band is
        // asymmetric-wide by design; DESIGN.md section 13 documents why.
        assert!(
            mice_mean_ratio > 0.5 && mice_mean_ratio < 1.5,
            "hybrid_openloop: mice mean-FCT ratio {mice_mean_ratio:.3} outside [0.5, 1.5]"
        );
        assert!(
            (bytes_ratio - 1.0).abs() < 0.15,
            "hybrid_openloop: switch-link byte ratio {bytes_ratio:.3} outside +/-15%"
        );
    }

    // Million-flow hybrid-only point (full mode): same offered rate, 10x
    // the window. Pure-packet at this size is tens of minutes — the
    // regime the hybrid split exists for — so only the hybrid runs.
    let million = if quick {
        String::new()
    } else {
        let mwindow = window_ns * 10;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x09E41007);
        let mflows = poisson_from_tm(&tm, &topo, rate, &sizes, mwindow, &mut rng);
        let n = mflows.flows.len();
        let mcfg = SimConfig {
            max_time_ns: mwindow + 60_000_000,
            ..cfg
        };
        let mut hyb = HybridSimulation::new(&topo, fs.clone(), mcfg, hcfg, seed);
        for f in &mflows.flows {
            hyb.add_flow(f.src, f.dst, f.bytes, f.start_ns)
                .expect("valid flow");
        }
        let t0 = Instant::now();
        let r = hyb.run();
        let wall = t0.elapsed().as_secs_f64();
        eprintln!(
            "hybrid_openloop: million-flow point — {n} flows in {wall:.2}s ({:.0} flows/s, {} resolves)",
            n as f64 / wall,
            r.resolves
        );
        format!(
            r#",
    "million_flow_hybrid_only": {{ "flows": {n}, "wall_s": {wall:.3}, "flows_per_sec": {:.0}, "resolves": {}, "unfinished": {} }}"#,
            n as f64 / wall,
            r.resolves,
            r.unfinished()
        )
    };

    format!(
        r#",
  "hybrid_openloop": {{
    "topology": "dring paper config, shortest-union(2)",
    "workload": "open-loop Poisson, uniform TM, pareto sizes, {nflows} flows over {window_ns} ns at {rate:.0} B/ns",
    "elephant_threshold_bytes": {threshold},
    "resolve_coalesce_ns": 10000,
    "elephant_count": {ele},
    "fluid_resolves": {resolves},
    "pure_packet": {{ "wall_s": {pure_s:.3}, "pkt_hops": {phops}, "unfinished": {pu} }},
    "hybrid": {{ "wall_s": {hybrid_s:.3}, "pkt_hops": {hhops}, "unfinished": {hu} }},
    "speedup": {speedup:.3},
    "agreement": {{
      "mice_compared": {nmice},
      "mice_mean_fct_ratio": {mice_mean_ratio:.4},
      "mice_p50_fct_ratio": {p50_ratio:.4},
      "mice_p99_fct_ratio": {p99_ratio:.4},
      "switch_link_byte_ratio": {bytes_ratio:.4},
      "tolerances": "full tier asserts mice mean-FCT ratio in [0.5, 1.5] and switch-link bytes within 15%; see DESIGN.md section 13"
    }}{million}
  }}"#,
        ele = rh.elephant_count,
        resolves = rh.resolves,
        phops = pure.pkt_hops(),
        pu = rp.unfinished(),
        hhops = hyb.pkt_hops(),
        hu = rh.unfinished(),
        nmice = pure_mice.len(),
    )
}

/// Frontier fingerprint: every deterministic metric of every frontier
/// cell, so bitwise comparison catches any drift.
fn frontier_fingerprint(r: &SearchResult) -> Vec<(String, u64, u64, u64)> {
    r.frontier_cells()
        .map(|c| {
            (
                c.name.clone(),
                c.cost(),
                c.nsr.to_bits(),
                c.throughput.unwrap_or(0.0).to_bits(),
            )
        })
        .collect()
}

/// Timed runs per sweep in the design-search tier.
const DESIGN_RUNS: usize = 3;

/// Median, minimum and maximum of a set of wall times, in seconds.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut runs: Vec<f64>) -> Spread {
        runs.sort_by(f64::total_cmp);
        Spread {
            median: runs[runs.len() / 2],
            min: runs[0],
            max: runs[runs.len() - 1],
        }
    }
}

/// The design-search tier: sweep the equipment envelope (family × radix ×
/// switch budget) through the cold reference (every cell builds its
/// forwarding state from scratch) and through the accelerated engine
/// (structural memo + dominance pruning), each on one row worker, and
/// report each sweep's median wall time over [`DESIGN_RUNS`] alternating
/// runs with its min and max. Each row's `ForwardingState::build` still
/// fans its DAG builds out over the host's threads, and the cold
/// reference builds far more states than the memoized sweep, so the ratio
/// mixes the algorithmic layers with thread scaling; the tier prints the
/// build thread count beside it. Both sweeps must agree on every frontier
/// bit, and the frontier must not move across 1/2/4 workers. The full
/// tier asserts the >=2x cells/sec bar; quick mode just records.
fn run_design_search_tier(quick: bool, seed: u64) -> String {
    // The radius band 16..=23 is where structure coincides: every DRing
    // design shares (supernodes, tors) across it, and Jellyfish shares its
    // net degree within {16..19} and {20..23} — so the memo layer carries
    // the accelerated sweep. Budgets in the hundreds make
    // ForwardingState::build dominate per-cell fixed costs.
    let spec = if quick {
        SearchSpec {
            radii: vec![16, 18],
            counts: vec![60, 70, 80],
            max_pairs: 256,
            workers: 1,
            ..SearchSpec::small(seed)
        }
    } else {
        SearchSpec {
            radii: vec![16, 18, 20, 22],
            counts: vec![360, 370, 380, 390, 400],
            max_pairs: 512,
            workers: 1,
            ..SearchSpec::small(seed)
        }
    };
    let envelope = format!(
        "{} families x {:?} radii x {:?} budgets, {} pair cap",
        spec.families.len(),
        spec.radii,
        spec.counts,
        spec.max_pairs
    );

    // Each sweep's wall time is the median of DESIGN_RUNS runs, cold and
    // accelerated alternating so host drift hits both alike.
    let (mut cold_runs, mut accel_runs) = (Vec::new(), Vec::new());
    let (mut cold, mut accel) = (None, None);
    for _ in 0..DESIGN_RUNS {
        let t0 = Instant::now();
        let r = run_search_reference(&spec);
        cold_runs.push(t0.elapsed().as_secs_f64());
        cold = Some(r);
        let t0 = Instant::now();
        let r = run_search(&spec);
        accel_runs.push(t0.elapsed().as_secs_f64());
        accel = Some(r);
    }
    let (cold, accel) = (cold.unwrap(), accel.unwrap());
    let (cold_t, accel_t) = (Spread::of(cold_runs), Spread::of(accel_runs));
    let (cold_s, accel_s) = (cold_t.median, accel_t.median);

    let base = frontier_fingerprint(&accel);
    assert_eq!(
        frontier_fingerprint(&cold),
        base,
        "design_search: accelerations changed the frontier"
    );
    assert_eq!(
        cold.stats.cells, accel.stats.cells,
        "design_search: cell counts diverged"
    );
    for workers in [2usize, 4] {
        let alt = run_search(&SearchSpec {
            workers,
            ..spec.clone()
        });
        assert_eq!(
            frontier_fingerprint(&alt),
            base,
            "design_search: frontier drifted at {workers} workers"
        );
    }

    let cells = accel.stats.cells;
    let speedup = cold_s / accel_s;
    // `build_dags` threads inside every forwarding-state build.
    let build_threads = par::host_threads();
    let s = accel.stats;
    let memo_peak_mib = s.memo_heap_bytes as f64 / (1 << 20) as f64;
    eprintln!(
        "design_search: {cells} cells — cold {:.2} cells/s ({:.3} s [{:.3}, {:.3}]), \
         accelerated {:.2} cells/s ({:.3} s [{:.3}, {:.3}]), medians of {DESIGN_RUNS} \
         ({speedup:.2}x, {build_threads} build threads); \
         {} cold builds, {} memo hits, {} pruned, memo peak {memo_peak_mib:.1} MiB; \
         frontier of {} identical across 1/2/4 workers",
        cells as f64 / cold_s,
        cold_s,
        cold_t.min,
        cold_t.max,
        cells as f64 / accel_s,
        accel_s,
        accel_t.min,
        accel_t.max,
        s.cold,
        s.memo,
        s.pruned,
        base.len()
    );
    if !quick {
        assert!(
            speedup >= 2.0,
            "design_search: accelerated sweep must be >=2x the cold reference, got {speedup:.2}x"
        );
    }

    format!(
        r#",
  "design_search": {{
    "envelope": "{envelope}",
    "scheme": "shortest-union(2)",
    "cells": {cells},
    "frontier_size": {frontier},
    "runs": {DESIGN_RUNS},
    "cold": {{ "wall_s": {cold_s:.3}, "wall_s_min": {cmin:.3}, "wall_s_max": {cmax:.3}, "cells_per_sec": {cold_cps:.3} }},
    "accelerated": {{ "wall_s": {accel_s:.3}, "wall_s_min": {amin:.3}, "wall_s_max": {amax:.3}, "cells_per_sec": {accel_cps:.3}, "cold_builds": {cb}, "memo_hits": {memo}, "solves_pruned": {pruned}, "memo_peak_mib": {memo_peak_mib:.3} }},
    "speedup": {speedup:.3},
    "build_threads": {build_threads},
    "frontier_identical_across_workers": [1, 2, 4],
    "results_identical": true
  }}"#,
        frontier = base.len(),
        cmin = cold_t.min,
        cmax = cold_t.max,
        amin = accel_t.min,
        amax = accel_t.max,
        cold_cps = cells as f64 / cold_s,
        accel_cps = cells as f64 / accel_s,
        cb = s.cold,
        memo = s.memo,
        pruned = s.pruned,
    )
}

/// The lossless (PFC) tier: a synchronized incast over the small DRing
/// with pause-frame flow control and the go-back-N transport — the
/// workload class where pause/resume control events thread through the
/// `(time, seq)` stream between every data packet. Measures the fast
/// datapath (FIB hot-cache + RTO timer wheel; terminal-TxDone elision is
/// off under PFC because a terminal TxDone discharges ingress accounting)
/// against the reference path, asserts them byte-identical including every
/// pause counter, and asserts the lossless invariant: zero tail drops.
fn run_lossless_tier(quick: bool, seed: u64) -> String {
    use spineless_sim::types::Transport;
    use spineless_sim::PfcConfig;
    let topo = DRing::uniform(6, 2, 24).build();
    let scheme = RoutingScheme::ShortestUnion(2);
    let fs = Arc::new(ForwardingState::build(&topo.graph, scheme));
    let bytes: u64 = if quick { 150_000 } else { 600_000 };
    let cfg = SimConfig {
        transport: Transport::GoBackN,
        pfc: Some(PfcConfig {
            xoff_bytes: 20_000,
            xon_bytes: 8_000,
        }),
        // Deep fixed window: the fabric's pauses, not the window, pace
        // the senders — the regime that maximizes control-event density.
        initial_cwnd: 32,
        max_time_ns: 10_000_000_000,
        ..Default::default()
    };
    let racks = topo.racks();
    let victim = topo
        .servers_on(racks[0])
        .next()
        .expect("victim rack has servers");
    let mut flow_bytes: Vec<u64> = Vec::new();
    let run = |datapath| {
        let cfg = SimConfig { datapath, ..cfg };
        let mut sim = Simulation::new(&topo, fs.clone(), cfg, seed);
        for &r in &racks[1..] {
            for src in topo.servers_on(r).take(2) {
                sim.add_flow(src, victim, bytes, 0)
                    .expect("incast endpoints valid");
            }
        }
        let t0 = Instant::now();
        let r = sim.run();
        (t0.elapsed().as_secs_f64(), r, sim.pkt_hops())
    };
    let (fast_s, fast_r, fast_hops) = run(Datapath::Fast);
    let (ref_s, ref_r, ref_hops) = run(Datapath::Reference);
    for &r in &racks[1..] {
        flow_bytes.extend(topo.servers_on(r).take(2).map(|_| bytes));
    }
    assert_eq!(
        fast_r.fcts(),
        ref_r.fcts(),
        "lossless: datapaths diverged: FCTs"
    );
    assert_eq!(
        (
            fast_r.pause_frames,
            fast_r.resume_frames,
            fast_r.links_ever_paused
        ),
        (
            ref_r.pause_frames,
            ref_r.resume_frames,
            ref_r.links_ever_paused
        ),
        "lossless: datapaths diverged: pause counters"
    );
    assert_eq!(
        fast_hops, ref_hops,
        "lossless: datapaths diverged: packet-hops"
    );
    assert_eq!(
        fast_r.congestion_drops, 0,
        "lossless: PFC tail-dropped a data packet"
    );
    assert_eq!(fast_r.unfinished(), 0, "lossless: incast must complete");
    // The estimate the adaptive selector uses under PFC: it adds the
    // pause/resume events a lossy estimate ignores.
    let est = estimate_events(flow_bytes.iter().copied(), cfg.mss_bytes, true);
    let speedup = ref_s / fast_s;
    eprintln!(
        "lossless: {} incast flows x {bytes} B — {} pauses over {} links, 0 tail drops; \
         fast {fast_s:.3}s vs reference {ref_s:.3}s ({speedup:.2}x)",
        flow_bytes.len(),
        fast_r.pause_frames,
        fast_r.links_ever_paused
    );
    format!(
        r#",
  "lossless": {{
    "topology": "dring(6,2) su2, pfc xoff 20 kB / xon 8 kB",
    "workload": "synchronized incast, 2 senders per remote rack x {bytes} B, go-back-N cwnd 32",
    "estimated_events": {est},
    "pause_frames": {pauses},
    "resume_frames": {resumes},
    "links_ever_paused": {lep},
    "max_ingress_backlog": {backlog},
    "congestion_drops": 0,
    "fast": {{ "wall_s": {fast_s:.4}, "events": {fe}, "events_per_sec": {feps:.0} }},
    "reference": {{ "wall_s": {ref_s:.4}, "events": {re}, "events_per_sec": {reps:.0} }},
    "speedup": {speedup:.3},
    "results_identical": true,
    "note": "terminal-TxDone elision is disabled under PFC (a terminal TxDone discharges ingress accounting), so fast-vs-reference here measures the FIB hot-cache and timer wheel only"
  }}"#,
        pauses = fast_r.pause_frames,
        resumes = fast_r.resume_frames,
        lep = fast_r.links_ever_paused,
        backlog = fast_r.max_ingress_backlog,
        fe = fast_r.events,
        feps = fast_r.events as f64 / fast_s,
        re = ref_r.events,
        reps = ref_r.events as f64 / ref_s,
    )
}

fn main() {
    let args = parse_args_quick();
    let (scale_req, seed, quick) = (args.scale, args.seed, args.quick);
    let threads = par::host_threads();
    let scale_label = match scale_req {
        Scale::Small => "small",
        Scale::Paper => "paper",
        Scale::Production => "production",
    };
    eprintln!("bench_snapshot: seed {seed}, {threads} threads, scale {scale_label}, quick {quick}");

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

    // --- Fluid solver: active-list vs full-scan on a dense C-S instance. ---
    let space = LinkSpace::new(&topos.dring);
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
    let n = topos.dring.num_servers();
    let mut fl: Vec<Vec<u32>> = Vec::new();
    for i in 0..4_000u32 {
        let (s, d) = (i % n, (i * 31 + 17) % n);
        if s == d {
            fl.push(Vec::new());
            continue;
        }
        let (ssw, dsw) = (topos.dring.switch_of(s), topos.dring.switch_of(d));
        let mut links = vec![space.uplink(s)];
        if ssw != dsw {
            let route = fs
                .sample_route_generic(ssw, dsw, &mut rng)
                .expect("reachable");
            let mut cur = ssw;
            for &(next, edge) in &route {
                links.push(space.switch_link(edge, cur));
                cur = next;
            }
        }
        links.push(space.downlink(d));
        fl.push(links);
    }
    let cap = vec![1.0f64; space.num_links() as usize];
    let reps = 5;
    let t0 = Instant::now();
    let mut fast = Vec::new();
    for _ in 0..reps {
        fast = max_min_rates(space.num_links() as usize, &cap, &fl);
    }
    let fluid_fast_s = t0.elapsed().as_secs_f64() / reps as f64;
    let t0 = Instant::now();
    let mut slow = Vec::new();
    for _ in 0..reps {
        slow = max_min_rates_reference(space.num_links() as usize, &cap, &fl);
    }
    let fluid_slow_s = t0.elapsed().as_secs_f64() / reps as f64;
    for (a, b) in fast.iter().zip(&slow) {
        assert_eq!(a.to_bits(), b.to_bits(), "fluid solvers diverged");
    }
    let fluid_speedup = fluid_slow_s / fluid_fast_s;
    eprintln!(
        "fluid: {} flows / {} links — active-list {fluid_fast_s:.4}s vs full-scan {fluid_slow_s:.4}s ({fluid_speedup:.2}x)",
        fl.len(),
        space.num_links()
    );

    // --- Routing-state build on the largest Fig. 6 sweep topology:
    // serial heap Dijkstra into nested DAGs vs parallel bucket queue into
    // CSR tables. ---
    let big = DRing::scale_config(15).build();
    let scheme = RoutingScheme::ShortestUnion(2);
    let t0 = Instant::now();
    let build_ref = ForwardingState::build_reference(&big.graph, scheme);
    let build_ref_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let build_fast = ForwardingState::build(&big.graph, scheme);
    let build_fast_s = t0.elapsed().as_secs_f64();
    assert_eq!(build_fast, build_ref, "routing-state builds diverged");
    let build_speedup = build_ref_s / build_fast_s;
    let big_switches = big.num_switches();
    let build_heap_bytes = build_fast.heap_bytes();
    eprintln!(
        "routing build: {big_switches} switches su2 — reference {build_ref_s:.3}s vs parallel bucket/CSR {build_fast_s:.3}s ({build_speedup:.2}x), {build_heap_bytes} B of tables"
    );

    // --- Failure recompute on the same topology: full rebuild vs
    // incremental (only destinations whose DAG lost an arc). ---
    let plan = FailurePlan::random_links(&big, 0.01, &mut SmallRng::seed_from_u64(seed ^ 0xFA11));
    let t0 = Instant::now();
    let degraded = plan.apply(&big).expect("plan applies");
    let full = ForwardingState::build(&degraded.graph, scheme);
    let fail_full_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let (_, inc) = incremental_rebuild(&build_fast, &big, &plan).expect("incremental");
    let fail_inc_s = t0.elapsed().as_secs_f64();
    assert_eq!(inc, full, "incremental failure recompute diverged");
    let fail_speedup = fail_full_s / fail_inc_s;
    let fail_links = plan.failed_links.len();
    eprintln!(
        "incremental failures: {fail_links} cut links — full {fail_full_s:.3}s vs incremental {fail_inc_s:.3}s ({fail_speedup:.2}x)"
    );

    // --- Next-hop walks: nested Vec<Vec<_>> DAGs vs CSR arenas, same
    // seeds so both draw the identical routes. ---
    let nested: Vec<_> = (0..big_switches)
        .map(|d| build_fast.vrf.dag_towards(d))
        .collect();
    let walks = 100_000u32;
    let walk = |use_csr: bool| {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x3A1D);
        let mut hops = 0usize;
        let t0 = Instant::now();
        for i in 0..walks as u64 {
            let s = ((i * 7919) % big_switches as u64) as u32;
            let d = ((i * 104729 + 1) % big_switches as u64) as u32;
            if s == d {
                continue;
            }
            let start = build_fast.vrf.host_node(s);
            let p = if use_csr {
                build_fast.dags[d as usize].sample_path(&build_fast.vrf.graph, start, &mut rng)
            } else {
                nested[d as usize].sample_path(start, &mut rng)
            };
            hops += p.expect("connected").len();
        }
        (t0.elapsed().as_secs_f64(), hops)
    };
    let (walk_nested_s, hops_nested) = walk(false);
    let (walk_csr_s, hops_csr) = walk(true);
    assert_eq!(hops_nested, hops_csr, "walk layouts diverged");
    let walk_speedup = walk_nested_s / walk_csr_s;
    eprintln!(
        "csr walk: {walks} routes — nested {walk_nested_s:.3}s vs CSR {walk_csr_s:.3}s ({walk_speedup:.2}x)"
    );

    // --- At-scale tiers: paper (and, above it, production) measure the
    // regime the sharded engine targets. The small sections above always
    // run, so every snapshot stays comparable across scales. ---
    let mut tier_sections = match scale_req {
        Scale::Small => String::new(),
        Scale::Paper => run_scale_tier(Scale::Paper, quick, seed, threads),
        Scale::Production => {
            let mut s = run_scale_tier(Scale::Paper, quick, seed, threads);
            s.push_str(&run_scale_tier(Scale::Production, quick, seed, threads));
            s
        }
    };

    // --- Hybrid fluid+packet tier: always runs (quick shrinks the
    // workload and skips the asserts), since it is the headline
    // open-loop regime. ---
    tier_sections.push_str(&run_hybrid_tier(quick, seed));

    // --- Design-search tier: the equipment-envelope sweep, cold reference
    // vs the memoized, pruning engine, always on (it is cheap and its
    // determinism asserts are the frontier's contract). ---
    tier_sections.push_str(&run_design_search_tier(quick, seed));

    // --- Lossless (PFC) tier: pause-frame incast under go-back-N, fast
    // vs reference datapath, always on — the one regime where control
    // events outnumber-per-byte everything else in the stream. ---
    tier_sections.push_str(&run_lossless_tier(quick, seed));

    // Hand-rolled JSON: the workspace deliberately carries no serde_json
    // dependency, and the document is flat enough that format! suffices.
    let json = format!(
        r#"{{
  "schema": "bench_snapshot/v9",
  "seed": {seed},
  "scale": "{scale_label}",
  "quick": {quick},
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
    "flows": {fluid_flows},
    "links": {fluid_links},
    "active_list_wall_s": {fluid_fast_s:.5},
    "full_scan_wall_s": {fluid_slow_s:.5},
    "speedup": {fluid_speedup:.3},
    "results_identical": true
  }},
  "routing_build": {{
    "topology": "dring scale_config(15), largest fig6 sweep point",
    "switches": {big_switches},
    "scheme": "shortest-union(2)",
    "reference": {{ "engine": "serial heap dijkstra, nested tables", "wall_s": {build_ref_s:.4} }},
    "fast": {{ "engine": "parallel bucket queue, csr tables", "wall_s": {build_fast_s:.4} }},
    "speedup": {build_speedup:.3},
    "heap_bytes": {build_heap_bytes},
    "results_identical": true
  }},
  "incremental_failures": {{
    "topology": "dring scale_config(15)",
    "failed_links": {fail_links},
    "full_rebuild_wall_s": {fail_full_s:.4},
    "incremental_wall_s": {fail_inc_s:.4},
    "speedup": {fail_speedup:.3},
    "results_identical": true
  }},
  "csr_walk": {{
    "routes": {walks},
    "nested_wall_s": {walk_nested_s:.4},
    "csr_wall_s": {walk_csr_s:.4},
    "speedup": {walk_speedup:.3},
    "results_identical": true
  }}{tier_sections}
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
        fluid_flows = fl.len(),
        fluid_links = space.num_links(),
    );
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("{json}");
    eprintln!("wrote BENCH_sim.json");
}
