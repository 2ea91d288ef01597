//! Pareto flow-size sampling.
//!
//! §5.2: "Flow sizes are picked from a standard Pareto distribution with
//! mean 100KB and scale=1.05 to mimic irregular flow sizes in a typical
//! datacenter." (1.05 is the shape/tail exponent α; the minimum `x_m`
//! follows from the mean: `mean = α·x_m / (α − 1)`.)
//!
//! Implemented by inverse transform — `x = x_m · U^{-1/α}` — to stay
//! within the workspace's approved dependency set (no `rand_distr`). A
//! truncation cap keeps the α ≈ 1 tail from producing multi-gigabyte flows
//! that would dominate simulated time; the paper's plots are percentile
//! statistics, which the cap does not disturb.

use rand::Rng;

/// A truncated Pareto sampler for flow sizes in bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoFlowSizes {
    /// Tail exponent α (> 1 so the mean exists).
    pub shape: f64,
    /// Minimum flow size, bytes.
    pub min_bytes: f64,
    /// Truncation cap, bytes.
    pub max_bytes: f64,
}

impl ParetoFlowSizes {
    /// The paper's distribution: mean 100 KB, α = 1.05, capped at 30 MB.
    pub fn paper() -> ParetoFlowSizes {
        ParetoFlowSizes::with_mean(100_000.0, 1.05, 30_000_000.0)
    }

    /// Builds a sampler from a target (untruncated) mean.
    ///
    /// # Panics
    ///
    /// Panics unless `shape > 1` and `mean > 0`.
    pub fn with_mean(mean_bytes: f64, shape: f64, max_bytes: f64) -> ParetoFlowSizes {
        assert!(shape > 1.0, "Pareto mean requires shape > 1");
        assert!(mean_bytes > 0.0);
        let min_bytes = mean_bytes * (shape - 1.0) / shape;
        assert!(max_bytes > min_bytes);
        ParetoFlowSizes {
            shape,
            min_bytes,
            max_bytes,
        }
    }

    /// Draws one flow size (at least 1 byte).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let x = self.min_bytes * u.powf(-1.0 / self.shape);
        x.min(self.max_bytes).max(1.0) as u64
    }

    /// Analytic mean of the *truncated* distribution — used when scaling a
    /// workload to a byte budget so the cap doesn't bias the flow count.
    pub fn truncated_mean(&self) -> f64 {
        // E[min(X, M)] for Pareto(x_m, α):
        //   = ∫ x f(x) dx over [x_m, M] + M · P(X > M)
        //   = α·x_m/(α−1) · (1 − (x_m/M)^{α−1}) + M·(x_m/M)^α
        let a = self.shape;
        let xm = self.min_bytes;
        let m = self.max_bytes;
        a * xm / (a - 1.0) * (1.0 - (xm / m).powf(a - 1.0)) + m * (xm / m).powf(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn paper_parameters() {
        let p = ParetoFlowSizes::paper();
        // x_m = 100 KB * 0.05/1.05 ≈ 4762 B.
        assert!((p.min_bytes - 100_000.0 * 0.05 / 1.05).abs() < 1e-6);
        assert_eq!(p.shape, 1.05);
    }

    #[test]
    fn samples_respect_bounds() {
        let p = ParetoFlowSizes::paper();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = p.sample(&mut rng);
            assert!(x as f64 >= p.min_bytes.floor());
            assert!(x as f64 <= p.max_bytes);
        }
    }

    #[test]
    fn empirical_mean_matches_truncated_mean() {
        let p = ParetoFlowSizes::paper();
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 400_000;
        let sum: f64 = (0..n).map(|_| p.sample(&mut rng) as f64).sum();
        let emp = sum / n as f64;
        let want = p.truncated_mean();
        // Heavy tail: allow 10% tolerance at this sample count.
        assert!((emp - want).abs() / want < 0.10, "emp {emp}, want {want}");
    }

    #[test]
    fn truncation_keeps_mean_below_untruncated() {
        let p = ParetoFlowSizes::paper();
        assert!(p.truncated_mean() < 100_000.0);
        // With α = 1.05 the untruncated mean is carried almost entirely by
        // the extreme tail; the capped mean lands near 38.5 KB. Pin it so a
        // distribution change is caught.
        let m = p.truncated_mean();
        assert!((m - 38_504.0).abs() < 50.0, "{m}");
    }

    #[test]
    fn heavier_tail_with_smaller_shape() {
        // Median of Pareto = x_m · 2^{1/α}: most flows are small, the mean
        // is carried by elephants — check the elephant/mice split.
        let p = ParetoFlowSizes::paper();
        let mut rng = SmallRng::seed_from_u64(3);
        let samples: Vec<u64> = (0..100_000).map(|_| p.sample(&mut rng)).collect();
        let below_10k =
            samples.iter().filter(|&&x| x < 10_000).count() as f64 / samples.len() as f64;
        // P(X < 10k) = 1 - (4762/10000)^1.05 ≈ 0.54.
        assert!((below_10k - 0.54).abs() < 0.02, "{below_10k}");
    }

    #[test]
    #[should_panic(expected = "shape > 1")]
    fn rejects_infinite_mean() {
        ParetoFlowSizes::with_mean(1000.0, 1.0, 1e9);
    }
}
