//! Rack-level traffic matrices.
//!
//! A [`TrafficMatrix`] assigns a weight to every ordered rack pair; flows
//! are drawn pair-by-pair proportionally to weight (§5.2: "Flows are chosen
//! between a pair of racks ... as per the rack-level weights"). Matrices
//! are defined over the topology's *racks* (switches hosting servers), so
//! the same generator works for leaf-spine (leaves only) and flat networks
//! (all switches).

use rand::Rng;
use spineless_graph::NodeId;
use spineless_topo::Topology;

/// A normalized rack-level traffic matrix.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    /// Switch ids of the racks, in index order.
    pub racks: Vec<NodeId>,
    /// Row-major `racks.len()²` weights, normalized to sum 1.
    pub weights: Vec<f64>,
    /// Cumulative weights for sampling.
    cumulative: Vec<f64>,
    /// Human-readable name ("uniform", "fb-skewed", ...).
    pub name: String,
}

impl TrafficMatrix {
    /// Builds a matrix from raw weights (any non-negative numbers; they
    /// are normalized).
    ///
    /// # Panics
    ///
    /// Panics if the weight vector has the wrong length, contains a
    /// negative or non-finite entry, or sums to zero.
    pub fn from_weights(
        name: impl Into<String>,
        racks: Vec<NodeId>,
        mut weights: Vec<f64>,
    ) -> TrafficMatrix {
        let n = racks.len();
        assert_eq!(weights.len(), n * n, "weights must be racks² long");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let sum: f64 = weights.iter().sum();
        assert!(sum > 0.0, "all-zero traffic matrix");
        for w in &mut weights {
            *w /= sum;
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            cumulative.push(acc);
        }
        TrafficMatrix {
            racks,
            weights,
            cumulative,
            name: name.into(),
        }
    }

    /// Number of racks.
    pub fn num_racks(&self) -> usize {
        self.racks.len()
    }

    /// Weight of ordered pair `(i, j)` (rack indices).
    pub fn weight(&self, i: usize, j: usize) -> f64 {
        self.weights[i * self.racks.len() + j]
    }

    /// Samples an ordered rack-index pair proportionally to weight.
    pub fn sample_pair<R: Rng>(&self, rng: &mut R) -> (usize, usize) {
        let u: f64 = rng.gen();
        let idx = self
            .cumulative
            .partition_point(|&c| c < u)
            .min(self.weights.len() - 1);
        (idx / self.racks.len(), idx % self.racks.len())
    }

    /// Racks that send or receive traffic (nonzero row or column) — the
    /// paper scales sparse TMs by `participating racks / total racks`.
    pub fn participating_racks(&self) -> usize {
        let n = self.racks.len();
        (0..n)
            .filter(|&i| (0..n).any(|j| self.weight(i, j) > 0.0 || self.weight(j, i) > 0.0))
            .count()
    }

    // ---- the paper's matrix families (§5.2) ----

    /// Uniform / sampled all-to-all: a flow picks a uniformly random source
    /// and destination *server*, so rack-pair weight is proportional to
    /// `servers_i · servers_j` (and `s_i · (s_i − 1)` on the diagonal).
    pub fn uniform(topo: &Topology) -> TrafficMatrix {
        let racks = topo.racks();
        let n = racks.len();
        let mut w = vec![0.0; n * n];
        for (i, &ri) in racks.iter().enumerate() {
            let si = topo.servers[ri as usize] as f64;
            for (j, &rj) in racks.iter().enumerate() {
                let sj = topo.servers[rj as usize] as f64;
                w[i * n + j] = if i == j { si * (si - 1.0) } else { si * sj };
            }
        }
        TrafficMatrix::from_weights("uniform", racks, w)
    }

    /// Rack-to-rack: all servers of rack index `src` send to all servers of
    /// rack index `dst` (§5.2).
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either index is out of range.
    pub fn rack_to_rack(topo: &Topology, src: usize, dst: usize) -> TrafficMatrix {
        let racks = topo.racks();
        let n = racks.len();
        assert!(src < n && dst < n && src != dst, "bad rack indices");
        let mut w = vec![0.0; n * n];
        w[src * n + dst] = 1.0;
        TrafficMatrix::from_weights("rack-to-rack", racks, w)
    }

    /// Synthetic stand-in for the Facebook *Hadoop* (largely uniform)
    /// rack-level matrix: uniform inter-rack weights with mild lognormal
    /// jitter (σ = 0.3), no rack-local traffic.
    ///
    /// Like [`fb_skewed`](Self::fb_skewed), the jitter comes from a shared
    /// activity *profile* so topologies with different rack counts see the
    /// same underlying workload.
    pub fn fb_uniform<R: Rng>(topo: &Topology, rng: &mut R) -> TrafficMatrix {
        Self::fb_profile(topo, rng, 0.3, "fb-uniform")
    }

    /// Synthetic stand-in for the Facebook *frontend* (significantly
    /// skewed) rack-level matrix: per-rack lognormal out/in activities
    /// whose product sets the pair weight — a few hot racks dominate, as
    /// in the measured cluster.
    ///
    /// Activities are sampled from a fixed-length *profile* drawn once per
    /// seed and indexed by normalized rack position, so two topologies with
    /// different rack counts (e.g. the 64-rack leaf-spine vs the 80-rack
    /// DRing) sample the *same* hot spots — mirroring how the paper maps
    /// one measured rack-level matrix onto every topology. Independent
    /// per-topology draws would make cross-topology FCT comparisons hostage
    /// to which topology happened to roll the hotter matrix.
    pub fn fb_skewed<R: Rng>(topo: &Topology, rng: &mut R) -> TrafficMatrix {
        // σ = 2.2 at slot level: rack activities sum ~3-4 slots, which
        // dilutes skew (CLT), so the slot draw is heavier than the target
        // rack-level skew. The result matches the frontend cluster's
        // qualitative shape: a handful of racks carry most of the traffic.
        Self::fb_profile(topo, rng, 2.2, "fb-skewed")
    }

    /// Shared profile-based generator for the FB-like families.
    fn fb_profile<R: Rng>(topo: &Topology, rng: &mut R, sigma: f64, name: &str) -> TrafficMatrix {
        const PROFILE: usize = 256;
        let out_profile: Vec<f64> = (0..PROFILE).map(|_| lognormal(rng, sigma)).collect();
        let in_profile: Vec<f64> = (0..PROFILE).map(|_| lognormal(rng, sigma)).collect();
        let racks = topo.racks();
        let n = racks.len();
        // Rack i owns the contiguous slot range [i·P/n, (i+1)·P/n) and its
        // activity is the range *sum*, so every profile slot — hot ones
        // included — lands in exactly one rack of every topology and total
        // activity is topology-independent.
        let activity = |profile: &[f64], i: usize| -> f64 {
            let lo = i * PROFILE / n;
            let hi = ((i + 1) * PROFILE / n).max(lo + 1).min(PROFILE);
            profile[lo..hi].iter().sum()
        };
        let mut w = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    w[i * n + j] = activity(&out_profile, i) * activity(&in_profile, j);
                }
            }
        }
        TrafficMatrix::from_weights(name, racks, w)
    }
}

/// Standard lognormal sample `exp(σ·Z)` via Box–Muller (no `rand_distr`).
fn lognormal<R: Rng>(rng: &mut R, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z).exp()
}

/// Gini coefficient of a weight vector — used to verify the skewed family
/// is actually skewed and the uniform family is not.
pub fn gini(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len() as f64;
    let sum: f64 = v.iter().sum();
    if sum == 0.0 {
        return 0.0;
    }
    let weighted: f64 = v
        .iter()
        .enumerate()
        .map(|(i, x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n * sum) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spineless_topo::dring::DRing;
    use spineless_topo::leafspine::LeafSpine;

    #[test]
    fn uniform_matrix_normalized_and_symmetric() {
        let t = LeafSpine::new(4, 2).build();
        let tm = TrafficMatrix::uniform(&t);
        assert_eq!(tm.num_racks(), 6);
        let total: f64 = tm.weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(tm.weight(0, 1), tm.weight(1, 0));
        // Diagonal: 4 servers → 4·3 vs off-diagonal 4·4.
        assert!(tm.weight(0, 0) < tm.weight(0, 1));
        assert_eq!(tm.participating_racks(), 6);
    }

    #[test]
    fn rack_to_rack_single_entry() {
        let t = LeafSpine::new(4, 2).build();
        let tm = TrafficMatrix::rack_to_rack(&t, 2, 5);
        assert_eq!(tm.weight(2, 5), 1.0);
        assert_eq!(tm.participating_racks(), 2);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..32 {
            assert_eq!(tm.sample_pair(&mut rng), (2, 5));
        }
    }

    #[test]
    fn sampling_tracks_weights() {
        let t = LeafSpine::new(2, 1).build(); // 3 racks
        let racks = t.racks();
        let mut w = vec![0.0; 9];
        w[1] = 3.0; // pair (0, 1)
        w[3 + 2] = 1.0; // pair (1, 2)
        let tm = TrafficMatrix::from_weights("test", racks, w);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = [0u32; 2];
        for _ in 0..40_000 {
            match tm.sample_pair(&mut rng) {
                (0, 1) => counts[0] += 1,
                (1, 2) => counts[1] += 1,
                other => panic!("impossible pair {other:?}"),
            }
        }
        let frac = counts[0] as f64 / 40_000.0;
        assert!((frac - 0.75).abs() < 0.02, "{frac}");
    }

    #[test]
    fn fb_skewed_is_much_more_skewed_than_fb_uniform() {
        let t = DRing::uniform(8, 4, 40).build();
        let mut rng = SmallRng::seed_from_u64(3);
        let sk = TrafficMatrix::fb_skewed(&t, &mut rng);
        let un = TrafficMatrix::fb_uniform(&t, &mut rng);
        let g_sk = gini(&sk.weights);
        let g_un = gini(&un.weights);
        assert!(g_sk > 0.7, "skewed gini {g_sk}");
        assert!(g_un < 0.35, "uniform gini {g_un}");
        assert!(g_sk > g_un + 0.3);
    }

    #[test]
    fn fb_matrices_have_no_rack_local_traffic() {
        let t = LeafSpine::new(4, 2).build();
        let mut rng = SmallRng::seed_from_u64(4);
        for tm in [
            TrafficMatrix::fb_skewed(&t, &mut rng),
            TrafficMatrix::fb_uniform(&t, &mut rng),
        ] {
            for i in 0..tm.num_racks() {
                assert_eq!(tm.weight(i, i), 0.0);
            }
        }
    }

    #[test]
    fn gini_extremes() {
        assert!(gini(&[1.0, 1.0, 1.0, 1.0]).abs() < 1e-12);
        let g = gini(&[0.0, 0.0, 0.0, 1.0]);
        assert!(g > 0.70, "{g}");
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "racks²")]
    fn rejects_wrong_length() {
        let t = LeafSpine::new(2, 1).build();
        TrafficMatrix::from_weights("x", t.racks(), vec![1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn rejects_zero_matrix() {
        let t = LeafSpine::new(2, 1).build();
        TrafficMatrix::from_weights("x", t.racks(), vec![0.0; 9]);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = LeafSpine::new(4, 2).build();
        let a = TrafficMatrix::fb_skewed(&t, &mut SmallRng::seed_from_u64(9));
        let b = TrafficMatrix::fb_skewed(&t, &mut SmallRng::seed_from_u64(9));
        assert_eq!(a.weights, b.weights);
    }
}
