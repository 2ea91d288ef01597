//! Failure injection and reconvergence analysis (paper §7, "Impact of
//! failures").
//!
//! The paper leaves open: "How quickly can routing converge to alternative
//! paths in the presence of failures in a flat network? What is the impact
//! of failures on network paths and load balancing?" This module answers
//! both within the model:
//!
//! * [`FailurePlan`] removes links and/or switches from a topology,
//!   yielding a degraded [`Topology`], and names the dead cables
//!   ([`FailurePlan::dead_edges`]);
//! * [`ForwardingState::masked`] recomputes the degraded forwarding state
//!   from the intact baseline, as routers would after withdrawing the
//!   routes over dead cables: the baseline's VRF graph with the dead arcs
//!   left out, and fresh distance labels for every destination on it. The
//!   plane keeps the fabric's arc, edge and node ids, and equals
//!   `ForwardingState::build` of [`FailurePlan::apply`]'s degraded graph
//!   under the dense → original arc map (pinned by tests and
//!   `tests/proptest_routing.rs`);
//! * [`assess`] / [`assess_with`] quantify the impact: disconnected rack
//!   pairs, route-cost stretch, Shortest-Union path-diversity loss, and
//!   the number of synchronous BGP rounds to reconverge — the §7 question,
//!   answered in rounds of the same control-plane model that §4's
//!   realization runs on.

use crate::bgp;
use crate::diversity::su_disjoint_exact;
use crate::fib::{ForwardingState, RoutingScheme};
use crate::vrf::VrfGraph;
use rand::seq::SliceRandom;
use rand::Rng;
use spineless_graph::{EdgeId, NodeId, UNREACHABLE};
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
    /// the failed cables. Edge ids are renumbered densely, surviving edges
    /// in their original order. Forwarding state for the degraded fabric
    /// comes from [`ForwardingState::masked`] instead, which keeps the
    /// intact ids; this is for physical-graph metrics.
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

    /// Per edge of `topo`: whether the plan kills it — a cut link, or any
    /// link of a powered-off switch.
    pub fn dead_edges(&self, topo: &Topology) -> Vec<bool> {
        let mut switch_dead = vec![false; topo.graph.num_nodes() as usize];
        for &sw in &self.failed_switches {
            switch_dead[sw as usize] = true;
        }
        let mut edge_dead = vec![false; topo.graph.num_edges() as usize];
        for &e in &self.failed_links {
            edge_dead[e as usize] = true;
        }
        for (dead, &(a, b)) in edge_dead.iter_mut().zip(topo.graph.edges()) {
            *dead |= switch_dead[a as usize] || switch_dead[b as usize];
        }
        edge_dead
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
/// state produced by [`ForwardingState::masked`]. The scheme is the
/// baseline's. The path-diversity and
/// reachability metrics run on the physical degraded graph,
/// [`FailurePlan::apply`]'s.
pub fn assess_with(
    topo: &Topology,
    baseline: &ForwardingState,
    plan: &FailurePlan,
    diversity_samples: usize,
) -> Result<FailureImpact, TopoError> {
    let scheme = baseline.scheme;
    let before = baseline;
    let degraded = plan.apply(topo)?;
    let after = baseline.masked(&plan.dead_edges(topo));

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
    fn incremental_rebuild_matches_full_rebuild() {
        // The state rebuilt from the baseline equals a full rebuild: a
        // fresh VRF graph of the intact topology, masked, with serial
        // heap-Dijkstra labels. No next hop crosses a dead cable.
        let t = dring();
        for scheme in [RoutingScheme::Ecmp, RoutingScheme::ShortestUnion(2)] {
            let baseline = ForwardingState::build(&t.graph, scheme);
            let mut rng = SmallRng::seed_from_u64(9);
            for round in 0..4 {
                let mut plan = FailurePlan::random_links(&t, 0.1, &mut rng);
                plan.failed_switches =
                    FailurePlan::random_switches(&t, round % 3, &mut rng).failed_switches;
                let dead = plan.dead_edges(&t);
                let rebuilt = baseline.masked(&dead);
                let vrf = VrfGraph::build(&t.graph, scheme.k()).masked(&dead);
                let full = ForwardingState {
                    scheme,
                    dist: (0..vrf.routers)
                        .map(|d| vrf.graph.dijkstra_to(vrf.host_node(d)))
                        .collect(),
                    vrf,
                };
                assert_eq!(rebuilt, full, "{} round {round}", scheme.label());
                for d in 0..t.graph.num_nodes() {
                    for u in 0..rebuilt.vrf.graph.num_nodes() {
                        for (_, a) in rebuilt.next_hops(u, d) {
                            assert!(!dead[rebuilt.vrf.edge_of_arc(a) as usize]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_rebuild_of_empty_plan_is_the_baseline() {
        let t = dring();
        let baseline = ForwardingState::build(&t.graph, RoutingScheme::ShortestUnion(2));
        let same = baseline.masked(&FailurePlan::default().dead_edges(&t));
        assert_eq!(same, baseline);
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
        let _ = baseline.masked(&FailurePlan::default().dead_edges(&t));
    }

    #[test]
    #[should_panic(expected = "fraction out of range")]
    fn rejects_bad_fraction() {
        let t = dring();
        FailurePlan::random_links(&t, 1.5, &mut SmallRng::seed_from_u64(0));
    }
}
