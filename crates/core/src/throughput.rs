//! §6.2 / Fig. 5: DRing-vs-leaf-spine throughput heatmaps in the C-S model.
//!
//! Every heatmap cell is the ratio `throughput(DRing) / throughput(leaf-
//! spine)` for one C-S traffic matrix: C client hosts (packed into the
//! fewest racks) sending long-running flows to S server hosts (likewise).
//! Throughput is the mean max-min fair rate from the fluid solver; the
//! paper reports four panels — {small, large} × {ECMP, Shortest-Union(2)}
//! — with DRing under the panel's routing scheme and leaf-spine always
//! under ECMP.

use crate::topos::{EvalTopos, Scale};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spineless_fluid::solve;
use spineless_graph::par;
use spineless_routing::{ForwardingState, RoutingScheme};
use spineless_topo::Topology;
use spineless_workload::cs::CsAssignment;

/// One heatmap cell.
#[derive(Debug, Clone, Copy)]
pub struct HeatmapCell {
    /// Number of clients (y axis).
    pub clients: u32,
    /// Number of servers (x axis).
    pub servers: u32,
    /// Mean max-min rate on the DRing (units of link rate).
    pub dring_rate: f64,
    /// Mean max-min rate on the leaf-spine.
    pub leafspine_rate: f64,
    /// The plotted ratio `dring_rate / leafspine_rate`.
    pub ratio: f64,
}

/// The paper's Fig. 5 axis values for a given scale.
///
/// Paper scale: small panel sweeps 20…260, large panel 200…1400. Small
/// scale shrinks the sweep to fit 192 hosts.
pub fn cs_axis_values(scale: Scale, large: bool) -> Vec<u32> {
    match (scale, large) {
        // Production shares the paper sweep: Fig. 5 is a structural
        // experiment, and the production tier only grows the fabric.
        (Scale::Paper | Scale::Production, false) => (0..7).map(|i| 20 + 40 * i).collect(), // 20..260
        (Scale::Paper | Scale::Production, true) => (0..7).map(|i| 200 + 200 * i).collect(), // 200..1400
        (Scale::Small, false) => (0..7).map(|i| 4 + 6 * i).collect(), // 4..40
        (Scale::Small, true) => (0..7).map(|i| 24 + 16 * i).collect(), // 24..120
    }
}

/// Mean C-S throughput on one topology under one routing scheme.
///
/// Uses up to `max_pairs` client-server demand pairs (the full bipartite
/// set when it fits, a uniform subsample otherwise).
pub fn cs_throughput(
    topo: &Topology,
    fs: &ForwardingState,
    clients: u32,
    servers: u32,
    max_pairs: usize,
    seed: u64,
) -> Option<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let assign = CsAssignment::generate(topo, clients, servers, &mut rng).ok()?;
    let pairs = assign.sampled_pairs(max_pairs, &mut rng);
    let sol = solve(topo, fs, &pairs, seed ^ 0xC5C5);
    Some(sol.mean_rate())
}

/// One (C, S) cell of a panel; `None` when either topology cannot host
/// the sets. The cell seed derives purely from `(seed, ci, si)`, so a
/// panel is byte-identical at every worker count.
fn fig5_cell(
    topos: &EvalTopos,
    fs_dring: &ForwardingState,
    fs_ls: &ForwardingState,
    c: u32,
    s: u32,
    max_pairs: usize,
    cell_seed: u64,
) -> Option<HeatmapCell> {
    let d = cs_throughput(&topos.dring, fs_dring, c, s, max_pairs, cell_seed)?;
    let l = cs_throughput(&topos.leafspine, fs_ls, c, s, max_pairs, cell_seed)?;
    Some(HeatmapCell {
        clients: c,
        servers: s,
        dring_rate: d,
        leafspine_rate: l,
        ratio: if l > 0.0 { d / l } else { f64::NAN },
    })
}

#[inline]
fn fig5_cell_seed(seed: u64, ci: usize, si: usize, side: usize) -> u64 {
    seed.wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(((ci * side + si) as u64) << 4)
}

/// Runs one Fig. 5 panel: the full (C, S) grid for one DRing routing
/// scheme, cells on the [`par`] pool in row-major (C, S) order. Cells
/// where either topology cannot host the C-S sets are omitted.
///
/// Deterministic despite the parallelism: every cell's seed derives from
/// `(seed, ci, si)` alone, so the output is byte-identical to a serial
/// loop over the grid (a test pins this).
pub fn run_fig5_panel(
    topos: &EvalTopos,
    dring_scheme: RoutingScheme,
    values: &[u32],
    max_pairs: usize,
    seed: u64,
) -> Vec<HeatmapCell> {
    let fs_dring = ForwardingState::build(&topos.dring.graph, dring_scheme);
    let fs_ls = ForwardingState::build(&topos.leafspine.graph, RoutingScheme::Ecmp);
    run_fig5_panel_with(topos, &fs_dring, &fs_ls, values, max_pairs, seed)
}

/// [`run_fig5_panel`] with prebuilt forwarding states, so drivers running
/// several panels (the Fig. 5 binary runs four) reuse the states instead
/// of rebuilding them per panel.
pub fn run_fig5_panel_with(
    topos: &EvalTopos,
    fs_dring: &ForwardingState,
    fs_ls: &ForwardingState,
    values: &[u32],
    max_pairs: usize,
    seed: u64,
) -> Vec<HeatmapCell> {
    let jobs: Vec<(usize, usize)> = (0..values.len())
        .flat_map(|ci| (0..values.len()).map(move |si| (ci, si)))
        .collect();
    let cells = par::map_ordered(
        &jobs,
        par::host_threads(),
        || (),
        |_, &(ci, si)| {
            let cell_seed = fig5_cell_seed(seed, ci, si, values.len());
            fig5_cell(
                topos, fs_dring, fs_ls, values[ci], values[si], max_pairs, cell_seed,
            )
        },
    );
    cells.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_values_match_paper() {
        assert_eq!(
            cs_axis_values(Scale::Paper, false),
            vec![20, 60, 100, 140, 180, 220, 260]
        );
        assert_eq!(
            cs_axis_values(Scale::Paper, true),
            vec![200, 400, 600, 800, 1000, 1200, 1400]
        );
        let small = cs_axis_values(Scale::Small, false);
        assert_eq!(small.len(), 7);
        assert!(*small.last().unwrap() <= 60, "fits 288 hosts in two sets");
    }

    #[test]
    fn skewed_cell_shows_flat_advantage() {
        // |C| << |S|: the paper's Fig. 5 shows DRing approaching the 2x
        // UDF bound. At small scale the effect is present if weaker.
        let topos = EvalTopos::build(Scale::Small, 1);
        // C must exceed a rack's uplink count for the rack bottleneck to
        // engage (C = 12 fills one DRing rack / most of a leaf-spine
        // rack); S large keeps the far side unconstrained.
        let cells = run_fig5_panel(
            &topos,
            RoutingScheme::ShortestUnion(2),
            &[12, 48],
            20_000,
            2,
        );
        let skew = cells
            .iter()
            .find(|c| c.clients == 12 && c.servers == 48)
            .expect("cell exists");
        assert!(
            skew.ratio > 1.2,
            "DRing should beat leaf-spine on skewed C-S: {skew:?}"
        );
    }

    #[test]
    fn oversized_sets_are_omitted() {
        let topos = EvalTopos::build(Scale::Small, 3);
        // 400 hosts don't exist at small scale (192 servers).
        let cells = run_fig5_panel(&topos, RoutingScheme::Ecmp, &[4, 400], 10_000, 4);
        assert!(cells.iter().all(|c| c.clients != 400 && c.servers != 400));
        assert!(cells.iter().any(|c| c.clients == 4 && c.servers == 4));
    }

    #[test]
    fn rates_are_positive_and_bounded() {
        let topos = EvalTopos::build(Scale::Small, 5);
        let cells = run_fig5_panel(&topos, RoutingScheme::ShortestUnion(2), &[8, 24], 10_000, 6);
        for c in &cells {
            assert!(c.dring_rate > 0.0 && c.dring_rate <= 1.0 + 1e-9, "{c:?}");
            assert!(
                c.leafspine_rate > 0.0 && c.leafspine_rate <= 1.0 + 1e-9,
                "{c:?}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let topos = EvalTopos::build(Scale::Small, 7);
        let a = run_fig5_panel(&topos, RoutingScheme::Ecmp, &[8, 16], 5_000, 8);
        let b = run_fig5_panel(&topos, RoutingScheme::Ecmp, &[8, 16], 5_000, 8);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ratio, y.ratio);
        }
    }

    #[test]
    fn parallel_panel_is_byte_identical_to_serial() {
        // The pooled panel must reproduce a serial loop over the grid
        // exactly — same cells, same order, bit-identical floats —
        // because every cell's seed derives from (seed, ci, si) alone.
        let topos = EvalTopos::build(Scale::Small, 9);
        let values = [4, 12, 400];
        let fs_ls = ForwardingState::build(&topos.leafspine.graph, RoutingScheme::Ecmp);
        for scheme in [RoutingScheme::Ecmp, RoutingScheme::ShortestUnion(2)] {
            let pooled = run_fig5_panel(&topos, scheme, &values, 5_000, 10);
            let fs_dring = ForwardingState::build(&topos.dring.graph, scheme);
            let mut ser = Vec::new();
            for (ci, &c) in values.iter().enumerate() {
                for (si, &s) in values.iter().enumerate() {
                    let cell_seed = fig5_cell_seed(10, ci, si, values.len());
                    ser.extend(fig5_cell(&topos, &fs_dring, &fs_ls, c, s, 5_000, cell_seed));
                }
            }
            assert_eq!(pooled.len(), ser.len());
            for (x, y) in pooled.iter().zip(&ser) {
                assert_eq!((x.clients, x.servers), (y.clients, y.servers));
                assert_eq!(x.dring_rate.to_bits(), y.dring_rate.to_bits());
                assert_eq!(x.leafspine_rate.to_bits(), y.leafspine_rate.to_bits());
                assert_eq!(x.ratio.to_bits(), y.ratio.to_bits());
            }
        }
    }
}
