//! Failure injection and reconvergence analysis (paper §7, "Impact of
//! failures").
//!
//! The paper leaves open: "How quickly can routing converge to alternative
//! paths in the presence of failures in a flat network? What is the impact
//! of failures on network paths and load balancing?" This module answers
//! both within the model:
//!
//! * [`FailurePlan`] removes links and/or switches from a topology,
//!   yielding a degraded [`Topology`];
//! * [`incremental_rebuild`] recomputes the degraded forwarding state from
//!   the intact baseline, rebuilding only destinations whose DAGs contain
//!   a failed arc — bit-identical to a full rebuild (pinned in debug
//!   builds, tests and `bench_snapshot`);
//! * [`assess`] / [`assess_with`] quantify the impact: disconnected rack
//!   pairs, route-cost stretch, Shortest-Union path-diversity loss, and
//!   the number of synchronous BGP rounds to reconverge — the §7 question,
//!   answered in rounds of the same control-plane model that §4's
//!   realization runs on.

use crate::bgp;
use crate::diversity::su_disjoint_exact;
use crate::fib::{build_dags, ForwardingState, RoutingScheme};
use crate::vrf::VrfGraph;
use rand::seq::SliceRandom;
use rand::Rng;
use spineless_graph::digraph::ArcId;
use spineless_graph::{CsrSpDag, EdgeId, NodeId, UNREACHABLE};
use spineless_topo::{TopoError, Topology};

/// A set of failures to inject.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailurePlan {
    /// Cables to cut (edge ids in the *original* topology).
    pub failed_links: Vec<EdgeId>,
    /// Switches to power off (their links are cut; their servers are
    /// stranded and excluded from workloads).
    pub failed_switches: Vec<NodeId>,
}

impl FailurePlan {
    /// A plan cutting a uniformly random `fraction` of the cables.
    pub fn random_links<R: Rng>(topo: &Topology, fraction: f64, rng: &mut R) -> FailurePlan {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        let mut edges: Vec<EdgeId> = (0..topo.graph.num_edges()).collect();
        edges.shuffle(rng);
        let n = ((topo.graph.num_edges() as f64) * fraction).round() as usize;
        edges.truncate(n);
        FailurePlan {
            failed_links: edges,
            failed_switches: Vec::new(),
        }
    }

    /// A plan powering off `count` random switches.
    pub fn random_switches<R: Rng>(topo: &Topology, count: u32, rng: &mut R) -> FailurePlan {
        let mut switches: Vec<NodeId> = (0..topo.num_switches()).collect();
        switches.shuffle(rng);
        switches.truncate(count as usize);
        FailurePlan {
            failed_links: Vec::new(),
            failed_switches: switches,
        }
    }

    /// Applies the plan: the degraded topology keeps the node id space
    /// (failed switches become isolated, their servers removed) and drops
    /// the failed cables. Edge ids are renumbered densely — rebuild any
    /// forwarding state from the returned topology.
    pub fn apply(&self, topo: &Topology) -> Result<Topology, TopoError> {
        let mut g = topo.graph.without_edges(&self.failed_links);
        for &sw in &self.failed_switches {
            g = g.without_node(sw);
        }
        let mut servers = topo.servers.clone();
        for &sw in &self.failed_switches {
            servers[sw as usize] = 0;
        }
        Topology::new(
            format!(
                "{}-failed(l{},s{})",
                topo.name,
                self.failed_links.len(),
                self.failed_switches.len()
            ),
            g,
            servers,
            topo.ports_per_switch,
        )
    }

    /// The edge-id translation [`FailurePlan::apply`] induces: entry `i` is
    /// the *original* edge id of the degraded topology's edge `i`.
    /// Surviving edges keep their relative order, so the map is simply the
    /// original ids with the dead ones (cut links plus every link of a
    /// powered-off switch) removed. The live simulator uses this to map a
    /// reconverged plane's next hops back onto its original link queues.
    pub fn surviving_edge_map(&self, topo: &Topology) -> Vec<EdgeId> {
        let mut switch_dead = vec![false; topo.graph.num_nodes() as usize];
        for &sw in &self.failed_switches {
            switch_dead[sw as usize] = true;
        }
        let mut edge_dead = vec![false; topo.graph.num_edges() as usize];
        for &e in &self.failed_links {
            edge_dead[e as usize] = true;
        }
        (0..topo.graph.num_edges())
            .filter(|&e| {
                let (a, b) = topo.graph.edge(e);
                !edge_dead[e as usize] && !switch_dead[a as usize] && !switch_dead[b as usize]
            })
            .collect()
    }
}

/// Impact of a failure plan on one (topology, routing scheme) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureImpact {
    /// Ordered rack pairs that lost all connectivity.
    pub disconnected_pairs: u64,
    /// Total surviving ordered rack pairs considered.
    pub surviving_pairs: u64,
    /// Mean route cost (Theorem-1 distance) before failures.
    pub mean_cost_before: f64,
    /// Mean route cost after failures, over still-connected pairs.
    pub mean_cost_after: f64,
    /// Minimum Shortest-Union disjoint-path count before, over sampled
    /// pairs.
    pub min_diversity_before: u32,
    /// ... and after.
    pub min_diversity_after: u32,
    /// Synchronous BGP rounds to converge on the degraded network — the
    /// paper's "how quickly can routing converge" number in control-plane
    /// rounds.
    pub bgp_rounds_after: u32,
}

/// Rebuilds forwarding state for `plan.apply(topo)` incrementally from the
/// intact network's `baseline` state, returning the degraded topology and
/// its state. Bit-identical to `ForwardingState::build(&degraded.graph)`.
///
/// *Why it is exact:* a destination's min-cost paths consist exactly of its
/// DAG's arcs, so if no failed VRF arc is in destination `d`'s baseline
/// DAG, every min-cost path towards `d` survives — distances, reachability
/// and the DAG arc set are all unchanged. Only `d`'s whose DAG contains a
/// failed arc (tested in O(failed arcs) against the baseline distance
/// labels) are rebuilt; the rest translate by arc-id renumbering, valid
/// because [`FailurePlan::apply`] preserves surviving-edge order and
/// [`VrfGraph::build`] emits a fixed arc block per edge, making the
/// degraded arc ids a dense order-preserving renumbering of the survivors.
pub fn incremental_rebuild(
    baseline: &ForwardingState,
    topo: &Topology,
    plan: &FailurePlan,
) -> Result<(Topology, ForwardingState), TopoError> {
    assert_eq!(
        baseline.vrf.routers,
        topo.graph.num_nodes(),
        "baseline state belongs to a different topology"
    );
    let degraded = plan.apply(topo)?;
    let scheme = baseline.scheme;
    let vrf = VrfGraph::build(&degraded.graph, scheme.k());

    // Which original cables died: the cut links plus every link of a
    // powered-off switch.
    let mut switch_dead = vec![false; topo.graph.num_nodes() as usize];
    for &sw in &plan.failed_switches {
        switch_dead[sw as usize] = true;
    }
    let mut edge_dead = vec![false; topo.graph.num_edges() as usize];
    for &e in &plan.failed_links {
        edge_dead[e as usize] = true;
    }
    for e in 0..topo.graph.num_edges() {
        let (a, b) = topo.graph.edge(e);
        if switch_dead[a as usize] || switch_dead[b as usize] {
            edge_dead[e as usize] = true;
        }
    }

    // Split baseline VRF arcs into failed (collected with endpoints and
    // cost for the affected test) and surviving (assigned their dense new
    // id by a running counter).
    const DEAD: ArcId = ArcId::MAX;
    let old_arcs = baseline.vrf.graph.num_arcs();
    let mut arc_map = vec![DEAD; old_arcs as usize];
    let mut failed_arcs: Vec<(NodeId, NodeId, u64)> = Vec::new();
    let mut next_arc: ArcId = 0;
    for a in 0..old_arcs {
        if edge_dead[baseline.vrf.edge_of_arc(a) as usize] {
            let (x, y, w) = baseline.vrf.graph.arc(a);
            failed_arcs.push((x, y, w as u64));
        } else {
            arc_map[a as usize] = next_arc;
            next_arc += 1;
        }
    }
    debug_assert_eq!(
        next_arc,
        vrf.graph.num_arcs(),
        "arc renumbering out of sync"
    );

    // Arc (x → y, w) is in d's DAG iff x is neither the destination nor
    // unreachable and the arc closes the distance gap — the same inclusion
    // rule `CsrSpDag::towards` applies.
    let affected: Vec<NodeId> = (0..baseline.vrf.routers)
        .filter(|&d| {
            let dist = &baseline.dags[d as usize].dist;
            failed_arcs.iter().any(|&(x, y, w)| {
                let (dx, dy) = (dist[x as usize], dist[y as usize]);
                dx != 0 && dx != UNREACHABLE && dy != UNREACHABLE && dy as u64 + w == dx as u64
            })
        })
        .collect();

    let mut rebuilt = build_dags(&vrf, &affected).into_iter();
    let mut affected_iter = affected.iter().copied().peekable();
    let dags: Vec<CsrSpDag> = (0..baseline.vrf.routers)
        .map(|d| {
            if affected_iter.peek() == Some(&d) {
                affected_iter.next();
                rebuilt
                    .next()
                    .expect("one rebuilt DAG per affected destination")
            } else {
                baseline.dags[d as usize].remap_arcs(|a| {
                    let m = arc_map[a as usize];
                    debug_assert_ne!(m, DEAD, "unaffected DAG references a failed arc");
                    m
                })
            }
        })
        .collect();
    Ok((degraded, ForwardingState { scheme, vrf, dags }))
}

/// Assesses a failure plan. `diversity_samples` bounds the (quadratic)
/// disjoint-path measurement to a deterministic subsample of rack pairs.
pub fn assess(
    topo: &Topology,
    scheme: RoutingScheme,
    plan: &FailurePlan,
    diversity_samples: usize,
) -> Result<FailureImpact, TopoError> {
    let baseline = ForwardingState::build(&topo.graph, scheme);
    assess_with(topo, &baseline, plan, diversity_samples)
}

/// [`assess`] against a prebuilt baseline state (share one via
/// `core::cache::RoutingCache` across a failure sweep), with the degraded
/// state produced by [`incremental_rebuild`] instead of a from-scratch
/// build. The scheme is the baseline's.
pub fn assess_with(
    topo: &Topology,
    baseline: &ForwardingState,
    plan: &FailurePlan,
    diversity_samples: usize,
) -> Result<FailureImpact, TopoError> {
    let scheme = baseline.scheme;
    let before = baseline;
    let (degraded, after) = incremental_rebuild(baseline, topo, plan)?;
    #[cfg(debug_assertions)]
    {
        let full = ForwardingState::build(&degraded.graph, scheme);
        debug_assert_eq!(
            after, full,
            "incremental rebuild diverged from full rebuild"
        );
    }

    let racks_before = topo.racks();
    let racks_after = degraded.racks();

    // Route costs over surviving rack pairs.
    let (mut sum_b, mut cnt_b) = (0u64, 0u64);
    let (mut sum_a, mut cnt_a) = (0u64, 0u64);
    let mut disconnected = 0u64;
    for &s in &racks_after {
        for &d in &racks_after {
            if s == d {
                continue;
            }
            if let Some(c) = before.route_cost(s, d) {
                sum_b += c;
                cnt_b += 1;
            }
            match after.route_cost(s, d) {
                Some(c) => {
                    sum_a += c;
                    cnt_a += 1;
                }
                None => disconnected += 1,
            }
        }
    }

    // Diversity on a deterministic pair subsample.
    let sample_pairs = |racks: &[NodeId]| -> Vec<(NodeId, NodeId)> {
        let mut pairs = Vec::new();
        'outer: for (i, &s) in racks.iter().enumerate() {
            for &d in racks.iter().skip(i + 1) {
                pairs.push((s, d));
                if pairs.len() >= diversity_samples {
                    break 'outer;
                }
            }
        }
        pairs
    };
    let k = scheme.k().max(2);
    let vrf_b = VrfGraph::build(&topo.graph, k);
    let vrf_a = VrfGraph::build(&degraded.graph, k);
    let min_div = |g: &spineless_graph::Graph, vrf: &VrfGraph, pairs: &[(NodeId, NodeId)]| {
        pairs
            .iter()
            .map(|&(s, d)| su_disjoint_exact(g, vrf, s, d))
            .min()
            .unwrap_or(0)
    };
    let pairs_b = sample_pairs(&racks_before);
    let pairs_a: Vec<(NodeId, NodeId)> = sample_pairs(&racks_after)
        .into_iter()
        .filter(|&(s, d)| {
            let dist = spineless_graph::bfs::distances(&degraded.graph, s);
            dist[d as usize] != UNREACHABLE
        })
        .collect();

    let outcome = bgp::converge(&after.vrf);

    Ok(FailureImpact {
        disconnected_pairs: disconnected,
        surviving_pairs: cnt_a,
        mean_cost_before: sum_b as f64 / cnt_b.max(1) as f64,
        mean_cost_after: sum_a as f64 / cnt_a.max(1) as f64,
        min_diversity_before: min_div(&topo.graph, &vrf_b, &pairs_b),
        min_diversity_after: min_div(&degraded.graph, &vrf_a, &pairs_a),
        bgp_rounds_after: outcome.rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spineless_topo::dring::DRing;
    use spineless_topo::leafspine::LeafSpine;

    fn dring() -> Topology {
        DRing::uniform(6, 3, 32).build()
    }

    #[test]
    fn apply_cuts_links_and_strands_servers() {
        let t = dring();
        let plan = FailurePlan {
            failed_links: vec![0, 5],
            failed_switches: vec![2],
        };
        let d = plan.apply(&t).unwrap();
        assert_eq!(d.num_switches(), t.num_switches());
        assert!(d.num_links() < t.num_links() - 1);
        assert_eq!(d.servers[2], 0);
        assert_eq!(d.graph.degree(2), 0);
        assert_eq!(d.num_racks(), t.num_racks() - 1);
    }

    #[test]
    fn random_plans_are_sized_and_deterministic() {
        let t = dring();
        let mut rng = SmallRng::seed_from_u64(1);
        let p = FailurePlan::random_links(&t, 0.1, &mut rng);
        assert_eq!(
            p.failed_links.len(),
            (t.num_links() as f64 * 0.1).round() as usize
        );
        let p2 = FailurePlan::random_links(&t, 0.1, &mut SmallRng::seed_from_u64(1));
        assert_eq!(p, p2);
        let ps = FailurePlan::random_switches(&t, 3, &mut rng);
        assert_eq!(ps.failed_switches.len(), 3);
    }

    #[test]
    fn small_failures_keep_dring_connected_with_stretch() {
        let t = dring();
        let mut rng = SmallRng::seed_from_u64(2);
        let plan = FailurePlan::random_links(&t, 0.08, &mut rng);
        let impact = assess(&t, RoutingScheme::ShortestUnion(2), &plan, 40).unwrap();
        assert_eq!(impact.disconnected_pairs, 0, "{impact:?}");
        assert!(impact.mean_cost_after >= impact.mean_cost_before - 1e-9);
        assert!(impact.min_diversity_after <= impact.min_diversity_before);
        assert!(impact.bgp_rounds_after >= 2);
    }

    #[test]
    fn switch_failure_disconnects_nothing_in_leafspine_with_spines_left() {
        // Killing one spine leaves full leaf connectivity via the others.
        let t = LeafSpine::new(6, 3).build();
        let spine0 = t.num_racks(); // first spine id
        let plan = FailurePlan {
            failed_links: vec![],
            failed_switches: vec![spine0],
        };
        let impact = assess(&t, RoutingScheme::Ecmp, &plan, 20).unwrap();
        assert_eq!(impact.disconnected_pairs, 0);
        // Path cost unchanged (still 2 hops via surviving spines).
        assert!((impact.mean_cost_after - impact.mean_cost_before).abs() < 1e-9);
    }

    #[test]
    fn catastrophic_failure_disconnects() {
        // Cut every link of a DRing supernode's first ToR: its rack pairs
        // disconnect.
        let t = dring();
        let victim = 0u32;
        let links: Vec<EdgeId> = (0..t.graph.num_edges())
            .filter(|&e| {
                let (a, b) = t.graph.edge(e);
                a == victim || b == victim
            })
            .collect();
        let plan = FailurePlan {
            failed_links: links,
            failed_switches: vec![],
        };
        let impact = assess(&t, RoutingScheme::ShortestUnion(2), &plan, 20).unwrap();
        // Victim still hosts servers but has no links: pairs to/from it die.
        assert!(impact.disconnected_pairs > 0);
    }

    #[test]
    fn surviving_edge_map_matches_apply_renumbering() {
        // The map must translate every degraded edge id back to an
        // original edge with the same endpoints — this is the contract the
        // simulator's mid-run plane swap rests on.
        let t = dring();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut plan = FailurePlan::random_links(&t, 0.15, &mut rng);
        plan.failed_switches = vec![3];
        let d = plan.apply(&t).unwrap();
        let map = plan.surviving_edge_map(&t);
        assert_eq!(map.len() as u32, d.graph.num_edges());
        for e in 0..d.graph.num_edges() {
            assert_eq!(
                d.graph.edge(e),
                t.graph.edge(map[e as usize]),
                "degraded edge {e}"
            );
        }
        // Dead edges never appear in the map.
        for &dead in &plan.failed_links {
            assert!(!map.contains(&dead));
        }
    }

    #[test]
    fn incremental_rebuild_matches_full_rebuild() {
        let t = dring();
        for scheme in [RoutingScheme::Ecmp, RoutingScheme::ShortestUnion(2)] {
            let baseline = ForwardingState::build(&t.graph, scheme);
            let mut rng = SmallRng::seed_from_u64(9);
            for round in 0..4 {
                let mut plan = FailurePlan::random_links(&t, 0.1, &mut rng);
                plan.failed_switches =
                    FailurePlan::random_switches(&t, round % 3, &mut rng).failed_switches;
                let (degraded, inc) = incremental_rebuild(&baseline, &t, &plan).unwrap();
                let full = ForwardingState::build(&degraded.graph, scheme);
                assert_eq!(inc, full, "{} round {round}", scheme.label());
            }
        }
    }

    #[test]
    fn incremental_rebuild_of_empty_plan_is_the_baseline() {
        let t = dring();
        let baseline = ForwardingState::build(&t.graph, RoutingScheme::ShortestUnion(2));
        let (degraded, inc) = incremental_rebuild(&baseline, &t, &FailurePlan::default()).unwrap();
        assert_eq!(degraded.graph.num_edges(), t.graph.num_edges());
        assert_eq!(inc, baseline);
    }

    #[test]
    fn assess_with_matches_assess() {
        let t = dring();
        let scheme = RoutingScheme::ShortestUnion(2);
        let plan = FailurePlan::random_links(&t, 0.08, &mut SmallRng::seed_from_u64(3));
        let baseline = ForwardingState::build(&t.graph, scheme);
        let direct = assess(&t, scheme, &plan, 40).unwrap();
        let cached = assess_with(&t, &baseline, &plan, 40).unwrap();
        assert_eq!(direct, cached);
    }

    #[test]
    #[should_panic(expected = "different topology")]
    fn incremental_rebuild_rejects_foreign_baseline() {
        let t = dring();
        let other = LeafSpine::new(6, 3).build();
        let baseline = ForwardingState::build(&other.graph, RoutingScheme::Ecmp);
        let _ = incremental_rebuild(&baseline, &t, &FailurePlan::default());
    }

    #[test]
    #[should_panic(expected = "fraction out of range")]
    fn rejects_bad_fraction() {
        let t = dring();
        FailurePlan::random_links(&t, 1.5, &mut SmallRng::seed_from_u64(0));
    }
}
