//! Coarse-grained adaptive routing (paper §7, "Coarse-grained adaptive
//! routing").
//!
//! §6.1 observes that neither scheme dominates: ECMP's shorter paths win
//! on uniform traffic, Shortest-Union(K)'s diversity wins where shortest
//! paths are scarce (nearby racks, skewed demand). The paper suggests "an
//! adaptive routing strategy ... even at coarse-grained scales" as future
//! work; this module implements the natural coarse-grained design:
//!
//! Both planes are provisioned simultaneously — exactly what the VRF
//! realization makes cheap on real switches, since ECMP is just a separate
//! VRF set — and the **source ToR picks the plane per destination** using
//! a static, topology-derived rule (e.g. "use Shortest-Union towards
//! destinations with fewer than `t` shortest paths"). No per-flow state,
//! no dynamic switching: the choice is a function of (src, dst) computed
//! once at configuration time, deployable as per-prefix VRF selection.
//!
//! [`DualPlane`] embeds the two planes in one vnode space and implements
//! [`Forwarding`], so the packet simulator and the fluid solver run it
//! unchanged.

use crate::fib::{Forwarding, ForwardingState, RoutingScheme};
use spineless_graph::bfs::SpDag;
use spineless_graph::{EdgeId, Graph, NodeId};

/// A two-plane forwarding state: plane 0 = ECMP, plane 1 = Shortest-
/// Union(K), with a per-(src, dst) plane choice made at the source ToR.
#[derive(Debug, Clone)]
pub struct DualPlane {
    /// The ECMP plane.
    pub ecmp: ForwardingState,
    /// The Shortest-Union(K) plane.
    pub su: ForwardingState,
    /// Row-major `routers²` plane choice: `true` = route (src, dst) over
    /// the Shortest-Union plane.
    use_su: Vec<bool>,
    /// vnode offset of the SU plane (= number of ECMP vnodes = routers).
    su_offset: u32,
}

impl DualPlane {
    /// Builds both planes and derives the per-pair choice from `policy`.
    pub fn new(graph: &Graph, k: u32, mut policy: impl FnMut(NodeId, NodeId) -> bool) -> DualPlane {
        let ecmp = ForwardingState::build(graph, RoutingScheme::Ecmp);
        let su = ForwardingState::build(graph, RoutingScheme::ShortestUnion(k));
        let r = graph.num_nodes();
        let mut use_su = vec![false; (r as usize) * (r as usize)];
        for s in 0..r {
            for d in 0..r {
                if s != d {
                    use_su[(s * r + d) as usize] = policy(s, d);
                }
            }
        }
        DualPlane {
            ecmp,
            su,
            use_su,
            su_offset: r,
        }
    }

    /// The paper-motivated default policy: Shortest-Union towards
    /// destinations that have fewer than `min_paths` shortest paths from
    /// the source — precisely the pairs §4 identifies as ECMP-starved.
    pub fn by_path_count(graph: &Graph, k: u32, min_paths: u64) -> DualPlane {
        let dags: Vec<SpDag> = (0..graph.num_nodes())
            .map(|d| SpDag::towards(graph, d))
            .collect();
        DualPlane::new(graph, k, |s, d| dags[d as usize].count_paths(s) < min_paths)
    }

    /// Distance-threshold policy: Shortest-Union for pairs within
    /// `max_dist` hops (nearby racks), ECMP beyond.
    pub fn by_distance(graph: &Graph, k: u32, max_dist: u32) -> DualPlane {
        let dist = spineless_graph::bfs::all_pairs_distances(graph);
        DualPlane::new(graph, k, |s, d| dist[s as usize][d as usize] <= max_dist)
    }

    /// Whether the (src, dst) pair routes over the Shortest-Union plane.
    pub fn routes_over_su(&self, src: NodeId, dst: NodeId) -> bool {
        self.use_su[(src * self.routers() + dst) as usize]
    }

    /// Fraction of ordered pairs routed over the Shortest-Union plane.
    pub fn su_fraction(&self) -> f64 {
        let r = self.routers() as usize;
        let on = self.use_su.iter().filter(|&&b| b).count();
        on as f64 / (r * r - r) as f64
    }
}

impl Forwarding for DualPlane {
    fn routers(&self) -> u32 {
        self.ecmp.vrf.routers
    }

    fn start(&self, src: NodeId, dst: NodeId) -> NodeId {
        if self.routes_over_su(src, dst) {
            self.su_offset + self.su.vrf.host_node(src)
        } else {
            // ECMP plane is K = 1: vnode == router id.
            src
        }
    }

    fn delivered(&self, vnode: NodeId, dst: NodeId) -> bool {
        if vnode >= self.su_offset {
            self.su.delivered(vnode - self.su_offset, dst)
        } else {
            vnode == dst
        }
    }

    fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        // Both planes share the physical graph; ECMP reachability decides.
        self.ecmp.reachable(src, dst)
    }

    fn router_of(&self, vnode: NodeId) -> NodeId {
        if vnode >= self.su_offset {
            self.su.vrf.router_of(vnode - self.su_offset)
        } else {
            vnode
        }
    }

    fn next_hop(&self, vnode: NodeId, dst: NodeId, hash: u64) -> (NodeId, EdgeId) {
        if vnode >= self.su_offset {
            let (nv, edge) = self.su.next_hop(vnode - self.su_offset, dst, hash);
            (nv + self.su_offset, edge)
        } else {
            self.ecmp.next_hop(vnode, dst, hash)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spineless_topo::dring::DRing;

    fn dring_graph() -> Graph {
        DRing::uniform(6, 3, 32).build().graph
    }

    #[test]
    fn policy_controls_plane_choice() {
        let g = dring_graph();
        // SU everywhere vs nowhere.
        let all = DualPlane::new(&g, 2, |_, _| true);
        let none = DualPlane::new(&g, 2, |_, _| false);
        assert_eq!(all.su_fraction(), 1.0);
        assert_eq!(none.su_fraction(), 0.0);
    }

    #[test]
    fn by_path_count_targets_adjacent_pairs() {
        let g = dring_graph();
        let dp = DualPlane::by_path_count(&g, 2, 4);
        // Adjacent racks (one shortest path) must use SU.
        assert!(dp.routes_over_su(0, 3));
        // Fraction strictly between 0 and 1: distant pairs keep ECMP.
        let f = dp.su_fraction();
        assert!(f > 0.0 && f < 1.0, "{f}");
    }

    #[test]
    fn by_distance_policy() {
        let g = dring_graph();
        let dp = DualPlane::by_distance(&g, 2, 1);
        assert!(dp.routes_over_su(0, 3)); // adjacent
        let d = spineless_graph::bfs::distances(&g, 0);
        let far = (0..g.num_nodes()).find(|&v| d[v as usize] == 2).unwrap();
        assert!(!dp.routes_over_su(0, far));
    }

    #[test]
    fn routes_follow_the_selected_plane() {
        let g = dring_graph();
        let dp = DualPlane::by_distance(&g, 2, 1);
        let mut rng = SmallRng::seed_from_u64(1);
        // Adjacent pair: SU plane can take 2-hop detours.
        let mut lengths = std::collections::BTreeSet::new();
        for _ in 0..64 {
            let r = dp.sample_route_generic(0, 3, &mut rng).unwrap();
            assert_eq!(r.last().unwrap().0, 3);
            lengths.insert(r.len());
        }
        assert!(
            lengths.contains(&2),
            "SU plane should produce detours: {lengths:?}"
        );
        // Distant pair on ECMP plane: always shortest (2 hops).
        let d = spineless_graph::bfs::distances(&g, 0);
        let far = (0..g.num_nodes()).find(|&v| d[v as usize] == 2).unwrap();
        for _ in 0..32 {
            let r = dp.sample_route_generic(0, far, &mut rng).unwrap();
            assert_eq!(r.len(), 2);
        }
    }

    #[test]
    fn vnode_spaces_do_not_collide() {
        let g = dring_graph();
        let dp = DualPlane::new(&g, 2, |s, d| (s + d) % 2 == 0);
        for s in 0..g.num_nodes() {
            for d in 0..g.num_nodes() {
                if s == d {
                    continue;
                }
                let v = dp.start(s, d);
                assert_eq!(dp.router_of(v), s, "start vnode maps back to src");
                assert!(dp.reachable(s, d));
            }
        }
    }
}
