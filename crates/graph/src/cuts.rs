//! Bisection-bandwidth estimation.
//!
//! The paper's scale argument (§3.2, §6.3) is that the DRing's bisection
//! bandwidth is asymptotically `O(n)` worse than an expander's, which only
//! bites at larger scale. Exact minimum bisection is NP-hard; we compute an
//! *upper bound* with randomized balanced partitions refined by
//! Kernighan–Lin-style pair swaps, with multiple restarts. For the highly
//! structured graphs here the local search finds the natural ring cut
//! reliably, which is all the scale study needs. An exhaustive solver is
//! included for cross-checking on small graphs.

use crate::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Number of edges crossing the partition given by `side` (`true` = side A).
pub fn cut_size(g: &Graph, side: &[bool]) -> u32 {
    g.edges()
        .iter()
        .filter(|&&(a, b)| side[a as usize] != side[b as usize])
        .count() as u32
}

/// Upper bound on the minimum *bisection* (balanced cut: sides differ by at
/// most one node), via `restarts` random starts each refined by
/// Kernighan–Lin pair-swap local search.
///
/// Returns `(cut_edges, side_assignment)` for the best partition found.
///
/// # Panics
///
/// Panics if the graph has fewer than 2 nodes.
pub fn estimate_bisection<R: Rng>(g: &Graph, restarts: u32, rng: &mut R) -> (u32, Vec<bool>) {
    let n = g.num_nodes() as usize;
    assert!(n >= 2, "bisection needs at least 2 nodes");
    let half = n / 2;
    let mut best_cut = u32::MAX;
    let mut best_side = vec![false; n];
    for _ in 0..restarts.max(1) {
        // Random balanced start.
        let mut order: Vec<NodeId> = (0..g.num_nodes()).collect();
        order.shuffle(rng);
        let mut side = vec![false; n];
        for &v in order.iter().take(half) {
            side[v as usize] = true;
        }
        let cut = kl_refine(g, &mut side);
        if cut < best_cut {
            best_cut = cut;
            best_side = side;
        }
    }
    (best_cut, best_side)
}

/// One full Kernighan–Lin refinement: repeatedly performs the best
/// improving A↔B pair swap until no swap improves the cut. Returns the
/// final cut size. `O(passes · n² · deg)` — acceptable for ≤ a few hundred
/// switches.
fn kl_refine(g: &Graph, side: &mut [bool]) -> u32 {
    let n = g.num_nodes();
    // gain[v] = (external edges) - (internal edges) for v w.r.t. its side.
    let gain = |g: &Graph, side: &[bool], v: NodeId| -> i64 {
        let mut ext = 0i64;
        let mut int = 0i64;
        for &(u, _) in g.neighbors(v) {
            if side[u as usize] != side[v as usize] {
                ext += 1;
            } else {
                int += 1;
            }
        }
        ext - int
    };
    loop {
        let mut best: Option<(i64, NodeId, NodeId)> = None;
        for a in 0..n {
            if !side[a as usize] {
                continue;
            }
            let ga = gain(g, side, a);
            for b in 0..n {
                if side[b as usize] {
                    continue;
                }
                let gb = gain(g, side, b);
                // Swapping a and b changes the cut by -(ga + gb) + 2·m(a,b).
                let m = g.multiplicity(a, b) as i64;
                let delta = ga + gb - 2 * m;
                if delta > 0 && best.is_none_or(|(bd, _, _)| delta > bd) {
                    best = Some((delta, a, b));
                }
            }
        }
        match best {
            Some((_, a, b)) => {
                side[a as usize] = false;
                side[b as usize] = true;
            }
            None => break,
        }
    }
    cut_size(g, side)
}

/// Exact minimum bisection by exhaustive enumeration. Only for tests and
/// sanity checks: `O(2^n)`, callable for `n ≤ 24` or so.
///
/// # Panics
///
/// Panics if `n < 2` or `n > 24`.
pub fn exact_bisection(g: &Graph) -> u32 {
    let n = g.num_nodes() as usize;
    assert!(
        (2..=24).contains(&n),
        "exact bisection limited to 2..=24 nodes"
    );
    let half = n / 2;
    let mut best = u32::MAX;
    // Fix node 0 on side B to halve the search space.
    for mask in 0u32..(1 << (n - 1)) {
        let mask = (mask as u64) << 1;
        if mask.count_ones() as usize != half && mask.count_ones() as usize != n - half {
            continue;
        }
        let side: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
        best = best.min(cut_size(g, &side));
    }
    best
}

/// Normalized bisection bandwidth: estimated minimum bisection cut divided
/// by the number of nodes. Lets topologies of different sizes be compared
/// per-switch, the way the paper's `O(n)`-worse claim is phrased.
pub fn bisection_per_node<R: Rng>(g: &Graph, restarts: u32, rng: &mut R) -> f64 {
    let (cut, _) = estimate_bisection(g, restarts, rng);
    cut as f64 / g.num_nodes() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cycle(n: u32) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i, (i + 1) % n);
        }
        b.build()
    }

    fn complete(n: u32) -> Graph {
        let mut b = GraphBuilder::new(n);
        for a in 0..n {
            for c in (a + 1)..n {
                b.add_edge(a, c);
            }
        }
        b.build()
    }

    #[test]
    fn cut_size_counts_crossing_edges() {
        let g = cycle(4);
        // Split {0,1} vs {2,3}: edges (1,2) and (3,0) cross.
        let side = vec![true, true, false, false];
        assert_eq!(cut_size(&g, &side), 2);
        // All on one side: no crossing.
        assert_eq!(cut_size(&g, &[true; 4]), 0);
    }

    #[test]
    fn cycle_bisection_is_two() {
        let g = cycle(12);
        let mut rng = SmallRng::seed_from_u64(4);
        let (cut, side) = estimate_bisection(&g, 8, &mut rng);
        assert_eq!(cut, 2);
        let a = side.iter().filter(|&&s| s).count();
        assert_eq!(a, 6, "balanced split");
        assert_eq!(exact_bisection(&g), 2);
    }

    #[test]
    fn complete_graph_bisection() {
        // K_8 bisection = 4 * 4 = 16 whichever way you cut.
        let g = complete(8);
        let mut rng = SmallRng::seed_from_u64(5);
        let (cut, _) = estimate_bisection(&g, 2, &mut rng);
        assert_eq!(cut, 16);
        assert_eq!(exact_bisection(&g), 16);
    }

    #[test]
    fn odd_node_count_allowed() {
        let g = cycle(7);
        let mut rng = SmallRng::seed_from_u64(6);
        let (cut, side) = estimate_bisection(&g, 8, &mut rng);
        assert_eq!(cut, 2);
        let a = side.iter().filter(|&&s| s).count();
        assert_eq!(a, 3); // floor(7/2)
    }

    #[test]
    fn estimate_matches_exact_on_random_small_graphs() {
        let mut rng = SmallRng::seed_from_u64(7);
        for trial in 0..6 {
            let n = 8;
            let mut b = GraphBuilder::new(n);
            // Random graph with p = 0.4, deterministic per trial.
            let mut grng = SmallRng::seed_from_u64(100 + trial);
            for a in 0..n {
                for c in (a + 1)..n {
                    if grng.gen_bool(0.4) {
                        b.add_edge(a, c);
                    }
                }
            }
            let g = b.build();
            let exact = exact_bisection(&g);
            let (est, _) = estimate_bisection(&g, 16, &mut rng);
            assert!(est >= exact, "estimate is an upper bound");
            assert_eq!(est, exact, "KL with restarts finds optimum at n=8");
        }
    }

    #[test]
    fn per_node_normalization() {
        let g = cycle(10);
        let mut rng = SmallRng::seed_from_u64(8);
        let v = bisection_per_node(&g, 8, &mut rng);
        assert!((v - 0.2).abs() < 1e-12);
    }
}
