//! §6.1 / Fig. 4: flow completion times across traffic matrices.
//!
//! The grid is seven traffic matrices × five (topology, routing)
//! combinations — `leaf-spine(ecmp)`, `DRing(shortest-union(2))`,
//! `RRG(shortest-union(2))`, `DRing(ecmp)`, `RRG(ecmp)` — reporting the
//! median and 99th-percentile FCT of a Pareto-sized, Poisson-ish workload
//! scaled so the leaf-spine's spine layer runs at 30 % utilization, with
//! sparse patterns (rack-to-rack, C-S) further scaled by the fraction of
//! racks that send (§6.1).

use crate::stats::FctSummary;
use crate::topos::{EvalTopos, Scale};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spineless_graph::par;
use spineless_routing::{ForwardingState, RoutingScheme};
use spineless_sim::{SimConfig, Simulation};
use spineless_topo::Topology;
use spineless_workload::cs::CsAssignment;
use spineless_workload::pareto::ParetoFlowSizes;
use spineless_workload::{FlowSet, TrafficMatrix};

/// The seven traffic matrices of Fig. 4, in the paper's column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TmKind {
    /// Uniform / sampled all-to-all.
    Uniform,
    /// All servers of one rack to all servers of another.
    RackToRack,
    /// C-S model with C = n/4 clients, S = n/16 servers (n = hosts).
    CsSkewed,
    /// Synthetic Facebook frontend-like (skewed) matrix.
    FbSkewed,
    /// Synthetic Facebook Hadoop-like (near-uniform) matrix.
    FbUniform,
    /// FB skewed with random server placement.
    FbSkewedRp,
    /// FB uniform with random server placement.
    FbUniformRp,
}

impl TmKind {
    /// All seven, in figure order.
    pub fn all() -> [TmKind; 7] {
        [
            TmKind::Uniform,
            TmKind::RackToRack,
            TmKind::CsSkewed,
            TmKind::FbSkewed,
            TmKind::FbUniform,
            TmKind::FbSkewedRp,
            TmKind::FbUniformRp,
        ]
    }

    /// Column label as printed in Fig. 4.
    pub fn label(&self) -> &'static str {
        match self {
            TmKind::Uniform => "A2A",
            TmKind::RackToRack => "R2R",
            TmKind::CsSkewed => "CS skewed",
            TmKind::FbSkewed => "FB skewed",
            TmKind::FbUniform => "FB uniform",
            TmKind::FbSkewedRp => "FB skewed (RP)",
            TmKind::FbUniformRp => "FB uniform (RP)",
        }
    }
}

/// Which of the three §5.1 topologies a cell runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopoKind {
    /// The leaf-spine baseline.
    LeafSpine,
    /// The DRing.
    DRing,
    /// The random regular graph.
    Rrg,
}

impl TopoKind {
    /// Figure-legend label.
    pub fn label(&self) -> &'static str {
        match self {
            TopoKind::LeafSpine => "leaf-spine",
            TopoKind::DRing => "DRing",
            TopoKind::Rrg => "RRG",
        }
    }

    /// The corresponding member of an [`EvalTopos`] trio.
    pub fn of<'a>(&self, topos: &'a EvalTopos) -> &'a Topology {
        match self {
            TopoKind::LeafSpine => &topos.leafspine,
            TopoKind::DRing => &topos.dring,
            TopoKind::Rrg => &topos.rrg,
        }
    }
}

/// The five bars of each Fig. 4 group, in legend order.
pub fn paper_combos() -> [(TopoKind, RoutingScheme); 5] {
    [
        (TopoKind::LeafSpine, RoutingScheme::Ecmp),
        (TopoKind::DRing, RoutingScheme::ShortestUnion(2)),
        (TopoKind::Rrg, RoutingScheme::ShortestUnion(2)),
        (TopoKind::DRing, RoutingScheme::Ecmp),
        (TopoKind::Rrg, RoutingScheme::Ecmp),
    ]
}

/// Configuration for the Fig. 4 experiment.
#[derive(Debug, Clone, Copy)]
pub struct FctConfig {
    /// Topology scale.
    pub scale: Scale,
    /// Target spine-layer utilization on the leaf-spine (paper: 0.3).
    pub utilization: f64,
    /// Flow-arrival window, ns.
    pub window_ns: u64,
    /// Master seed.
    pub seed: u64,
    /// Simulator parameters.
    pub sim: SimConfig,
}

impl FctConfig {
    /// A quick configuration at small scale (sub-second cells).
    pub fn quick(seed: u64) -> FctConfig {
        FctConfig {
            scale: Scale::Small,
            utilization: 0.3,
            window_ns: 4_000_000, // 4 ms
            seed,
            sim: SimConfig::default(),
        }
    }

    /// The paper-scale configuration (minutes per cell).
    pub fn paper(seed: u64) -> FctConfig {
        FctConfig {
            scale: Scale::Paper,
            utilization: 0.3,
            window_ns: 10_000_000, // 10 ms
            seed,
            sim: SimConfig::default(),
        }
    }
}

/// One cell of the Fig. 4 grid.
#[derive(Debug, Clone)]
pub struct FctCell {
    /// Topology label.
    pub topo: String,
    /// Routing label.
    pub routing: String,
    /// Traffic-matrix label.
    pub tm: String,
    /// Median FCT, ms (Fig. 4a).
    pub median_ms: f64,
    /// 99th-percentile FCT, ms (Fig. 4b).
    pub p99_ms: f64,
    /// Mean FCT, ms.
    pub mean_ms: f64,
    /// Flows injected.
    pub flows: usize,
    /// Flows that did not finish within the simulation horizon.
    pub unfinished: usize,
    /// Packets dropped.
    pub dropped: u64,
}

/// Generates the workload for one TM kind on one topology.
///
/// `offered_bytes` is the 30 %-utilization byte budget *before* the sparse-
/// pattern scaling; this function applies the `senders / total racks`
/// factor for rack-to-rack and C-S (§6.1).
pub fn generate_workload(
    kind: TmKind,
    topo: &Topology,
    offered_bytes: u64,
    window_ns: u64,
    seed: u64,
) -> FlowSet {
    let sizes = ParetoFlowSizes::paper();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFEED_F00D);
    let racks = topo.num_racks() as f64;
    match kind {
        TmKind::Uniform => {
            let tm = TrafficMatrix::uniform(topo);
            FlowSet::from_tm(&tm, topo, offered_bytes, &sizes, window_ns, &mut rng)
        }
        TmKind::RackToRack => {
            // The paper's R2R point is the path-diversity worst case: in a
            // flat network adjacent racks have a single shortest path
            // (§4), so pick an adjacent rack pair when one exists. In a
            // leaf-spine no racks are adjacent and all pairs are
            // equivalent, so the first pair serves.
            let rack_ids = topo.racks();
            let (a, b) = rack_ids
                .iter()
                .enumerate()
                .flat_map(|(i, &ra)| rack_ids[i + 1..].iter().map(move |&rb| (ra, rb)))
                .find(|&(ra, rb)| topo.graph.has_edge(ra, rb))
                .map(|(ra, rb)| {
                    let idx = |r| rack_ids.iter().position(|&x| x == r).expect("rack");
                    (idx(ra), idx(rb))
                })
                .unwrap_or((0, 1));
            let tm = TrafficMatrix::rack_to_rack(topo, a, b);
            let scaled = (offered_bytes as f64 * 1.0 / racks) as u64;
            FlowSet::from_tm(&tm, topo, scaled, &sizes, window_ns, &mut rng)
        }
        TmKind::CsSkewed => {
            let n = topo.num_servers();
            let assign = CsAssignment::generate(topo, (n / 4).max(1), (n / 16).max(1), &mut rng)
                .expect("C-S assignment fits the topology");
            let pairs = assign.sampled_pairs(200_000, &mut rng);
            let senders = assign.client_racks.len() as f64;
            let scaled = (offered_bytes as f64 * senders / racks) as u64;
            FlowSet::from_pairs(&pairs, scaled, &sizes, window_ns, &mut rng)
        }
        TmKind::FbSkewed => {
            let tm = TrafficMatrix::fb_skewed(topo, &mut rng);
            FlowSet::from_tm(&tm, topo, offered_bytes, &sizes, window_ns, &mut rng)
        }
        TmKind::FbUniform => {
            let tm = TrafficMatrix::fb_uniform(topo, &mut rng);
            FlowSet::from_tm(&tm, topo, offered_bytes, &sizes, window_ns, &mut rng)
        }
        TmKind::FbSkewedRp => {
            // The permutation rng is derived, not `rng` itself: the inner
            // call re-seeds the identical stream, and reusing it here would
            // correlate the placement shuffle with the matrix draw.
            let mut perm_rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0F13_57AD_9B61);
            generate_workload(TmKind::FbSkewed, topo, offered_bytes, window_ns, seed)
                .randomly_placed(topo.num_servers(), &mut perm_rng)
        }
        TmKind::FbUniformRp => {
            let mut perm_rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0F13_57AD_9B61);
            generate_workload(TmKind::FbUniform, topo, offered_bytes, window_ns, seed)
                .randomly_placed(topo.num_servers(), &mut perm_rng)
        }
    }
}

/// Runs one (topology, routing, workload) cell through the packet
/// simulator and summarizes FCTs, building the forwarding state ad hoc.
///
/// Grid drivers should prefer [`run_cell_with`] over a
/// [`crate::cache::RoutingCache`]: the Fig. 4 grid has 35 cells but only 5
/// distinct (topology, scheme) states.
pub fn run_cell(
    topo: &Topology,
    scheme: RoutingScheme,
    flows: &FlowSet,
    tm_label: &str,
    sim_cfg: SimConfig,
    seed: u64,
) -> FctCell {
    let fs = ForwardingState::build(&topo.graph, scheme);
    run_cell_with(topo, scheme, &fs, flows, tm_label, sim_cfg, seed)
}

/// [`run_cell`] with a prebuilt forwarding state (shared by reference; the
/// caller keeps ownership and can reuse it for further cells).
pub fn run_cell_with(
    topo: &Topology,
    scheme: RoutingScheme,
    fs: &ForwardingState,
    flows: &FlowSet,
    tm_label: &str,
    sim_cfg: SimConfig,
    seed: u64,
) -> FctCell {
    let report = cell_simulation(topo, fs, flows, sim_cfg, seed).run();
    let s = FctSummary::from_report(&report);
    FctCell {
        topo: topo.name.clone(),
        routing: scheme.label(),
        tm: tm_label.to_owned(),
        median_ms: s.median_ms,
        p99_ms: s.p99_ms,
        mean_ms: s.mean_ms,
        flows: s.flows,
        unfinished: s.unfinished,
        dropped: s.dropped,
    }
}

/// One cell's simulation with its workload admitted, on one shard: the
/// grid's workers already cover the host's cores.
fn cell_simulation<'a>(
    topo: &Topology,
    fs: &'a ForwardingState,
    flows: &FlowSet,
    sim_cfg: SimConfig,
    seed: u64,
) -> Simulation<&'a ForwardingState> {
    let mut sim = Simulation::new(topo, fs, sim_cfg, seed);
    sim.set_shards(1);
    for f in &flows.flows {
        sim.add_flow(f.src, f.dst, f.bytes, f.start_ns)
            .expect("workload endpoints are valid and connected");
    }
    sim
}

/// Runs the full Fig. 4 grid (7 TMs × 5 combos = 35 cells), cells on the
/// [`par`] pool. Deterministic despite the parallelism: every cell's seed
/// derives from `(cfg.seed, tm, combo)` alone.
pub fn run_fig4(cfg: &FctConfig) -> Vec<FctCell> {
    let topos = EvalTopos::build(cfg.scale, cfg.seed);
    let offered = cfg.offered_bytes(&topos);
    // The grid has 35 cells but only 5 distinct (topology, scheme) pairs:
    // build each forwarding state once and share it across the pool.
    let cache = crate::cache::RoutingCache::build(&topos, &paper_combos());
    let mut jobs: Vec<(usize, usize, TmKind, TopoKind, RoutingScheme)> = Vec::new();
    for (ti, tm) in TmKind::all().into_iter().enumerate() {
        for (tk, rs) in paper_combos() {
            jobs.push((jobs.len(), ti, tm, tk, rs));
        }
    }
    // Paper-scale cells hold substantial live state (flow tables, event
    // queues), so the pool runs one per host thread, not all 35 at once.
    par::map_ordered(
        &jobs,
        par::host_threads(),
        || (),
        |_, &(i, ti, tm, tk, rs)| {
            let topo = tk.of(&topos);
            let fs = cache.get(tk, rs);
            // The workload seed depends on the TM only, so all five combos of
            // one column face the *same* drawn workload (paired comparison,
            // like the paper's shared measured matrices); the sim seed varies
            // per cell.
            let tm_seed = cfg
                .seed
                .wrapping_mul(0x100000001B3)
                .wrapping_add((ti as u64) << 20);
            let sim_seed = tm_seed.wrapping_add(1 + i as u64);
            let flows = generate_workload(tm, topo, offered, cfg.window_ns, tm_seed);
            run_cell_with(topo, rs, &fs, &flows, tm.label(), cfg.sim, sim_seed)
        },
    )
}

impl FctConfig {
    /// The byte budget for this configuration (see
    /// [`EvalTopos::offered_bytes`]).
    pub fn offered_bytes(&self, topos: &EvalTopos) -> u64 {
        topos.offered_bytes(self.utilization, self.window_ns, self.sim.link_rate_gbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figure() {
        assert_eq!(TmKind::all().len(), 7);
        assert_eq!(TmKind::CsSkewed.label(), "CS skewed");
        assert_eq!(paper_combos().len(), 5);
        assert_eq!(paper_combos()[0].0.label(), "leaf-spine");
    }

    #[test]
    fn workload_generation_covers_all_kinds() {
        let topos = EvalTopos::build(Scale::Small, 1);
        for kind in TmKind::all() {
            let fs = generate_workload(kind, &topos.dring, 2_000_000, 1_000_000, 3);
            assert!(!fs.is_empty(), "{kind:?}");
            for f in &fs.flows {
                assert!(f.src < topos.dring.num_servers());
                assert!(f.dst < topos.dring.num_servers());
                assert_ne!(f.src, f.dst);
            }
        }
    }

    #[test]
    fn sparse_patterns_are_scaled_down() {
        let topos = EvalTopos::build(Scale::Small, 2);
        let base = generate_workload(TmKind::Uniform, &topos.leafspine, 20_000_000, 1_000_000, 4);
        let r2r = generate_workload(
            TmKind::RackToRack,
            &topos.leafspine,
            20_000_000,
            1_000_000,
            4,
        );
        // R2R is scaled by 1/racks = 1/16.
        assert!(
            r2r.len() * 8 < base.len(),
            "r2r {} vs base {}",
            r2r.len(),
            base.len()
        );
    }

    #[test]
    fn run_cell_produces_finite_stats() {
        let topos = EvalTopos::build(Scale::Small, 5);
        let flows = generate_workload(TmKind::Uniform, &topos.leafspine, 1_000_000, 500_000, 6);
        let cell = run_cell(
            &topos.leafspine,
            RoutingScheme::Ecmp,
            &flows,
            "A2A",
            SimConfig::default(),
            6,
        );
        assert!(cell.median_ms.is_finite() && cell.median_ms > 0.0);
        assert!(cell.p99_ms >= cell.median_ms);
        assert_eq!(cell.unfinished, 0);
        assert_eq!(cell.flows, flows.len());
    }

    #[test]
    fn grid_cells_run_on_one_shard() {
        // A paper-scale cell heavy enough that the unpinned shard rule
        // picks two or more shards on a multi-core host: the grid's cells
        // still run on one, since its workers already cover the cores.
        let topo = EvalTopos::dring_config(Scale::Paper).build();
        let fs = ForwardingState::build(&topo.graph, RoutingScheme::ShortestUnion(2));
        let flows = generate_workload(TmKind::Uniform, &topo, 2_000_000_000, 1_000_000, 3);
        let cfg = SimConfig::default();
        let mut unpinned = Simulation::new(&topo, &fs, cfg, 3);
        for f in &flows.flows {
            unpinned
                .add_flow(f.src, f.dst, f.bytes, f.start_ns)
                .unwrap();
        }
        let threads = par::host_threads();
        assert_eq!(unpinned.shards() > 1, threads > 1, "{threads} threads");
        assert_eq!(cell_simulation(&topo, &fs, &flows, cfg, 3).shards(), 1);
        // And a cell that runs reports the one shard it used.
        let small = EvalTopos::build(Scale::Small, 5);
        let fs = ForwardingState::build(&small.dring.graph, RoutingScheme::Ecmp);
        let flows = generate_workload(TmKind::Uniform, &small.dring, 1_000_000, 500_000, 6);
        let mut sim = cell_simulation(&small.dring, &fs, &flows, cfg, 6);
        assert_eq!(sim.run().unfinished(), 0);
        assert_eq!(sim.shards(), 1);
    }

    #[test]
    fn event_estimate_is_within_2x_of_actual_events() {
        // The estimate the shard rule keys on, against the events a run
        // really processes: a small all-to-all and a small lossless
        // incast, the shapes of the benchmark's two packet workloads.
        use spineless_sim::types::Transport;
        use spineless_sim::{estimate_events, PfcConfig};
        let topo = EvalTopos::dring_config(Scale::Small).build();
        let fs = ForwardingState::build(&topo.graph, RoutingScheme::ShortestUnion(2));
        let a2a = generate_workload(TmKind::Uniform, &topo, 40_000_000, 200_000, 42).flows;
        let racks = topo.racks();
        let stride = racks.len() / 8;
        let victims: Vec<u32> = (0..8)
            .map(|i| topo.servers_on(racks[i * stride]).start)
            .collect();
        let mut incast = Vec::new();
        for (ri, &rack) in racks.iter().enumerate().skip(1) {
            for (k, src) in topo.servers_on(rack).take(2).enumerate() {
                let dst = victims[(ri + k) % 8];
                if src != dst {
                    incast.push(spineless_workload::FlowSpec {
                        src,
                        dst,
                        bytes: 200_000,
                        start_ns: 0,
                    });
                }
            }
        }
        let lossless = SimConfig {
            transport: Transport::GoBackN,
            pfc: Some(PfcConfig {
                xoff_bytes: 20_000,
                xon_bytes: 8_000,
            }),
            initial_cwnd: 32,
            ..Default::default()
        };
        for (name, flows, cfg) in [
            ("a2a", a2a, SimConfig::default()),
            ("pfc incast", incast, lossless),
        ] {
            let mut sim = Simulation::new(&topo, &fs, cfg, 42);
            for f in &flows {
                sim.add_flow(f.src, f.dst, f.bytes, f.start_ns).unwrap();
            }
            let actual = sim.run().events as f64;
            let est = estimate_events(
                flows.iter().map(|f| f.bytes),
                cfg.mss_bytes,
                cfg.pfc.is_some(),
            );
            let ratio = est as f64 / actual;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{name}: estimated {est}, actual {actual}"
            );
        }
    }

    #[test]
    fn rp_variants_permute_endpoints() {
        let topos = EvalTopos::build(Scale::Small, 7);
        let plain = generate_workload(TmKind::FbSkewed, &topos.dring, 2_000_000, 1_000_000, 8);
        let rp = generate_workload(TmKind::FbSkewedRp, &topos.dring, 2_000_000, 1_000_000, 8);
        assert_eq!(plain.len(), rp.len());
        // Same sizes in the same order, different endpoints overall.
        let sizes_equal = plain
            .flows
            .iter()
            .zip(&rp.flows)
            .all(|(a, b)| a.bytes == b.bytes);
        assert!(sizes_equal);
        let endpoints_differ = plain
            .flows
            .iter()
            .zip(&rp.flows)
            .any(|(a, b)| a.src != b.src || a.dst != b.dst);
        assert!(endpoints_differ);
    }
}
