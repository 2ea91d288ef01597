//! Open-loop Poisson flow arrivals.
//!
//! The closed flow lists of [`crate::flows::FlowSet::from_tm`] spread a
//! fixed byte budget uniformly over a window — fine for replaying a
//! scenario, but offered load is then a *consequence* of the budget, not a
//! control. The hybrid co-simulation regime ("heavy traffic from millions
//! of users") wants the opposite: load specified as a *rate*, with flows
//! arriving by a Poisson process for as long as the window lasts. Flow
//! count is then a random variable (mean `rate · window / mean-size`), and
//! arrival times carry the exponential gaps real open-loop traffic has.
//!
//! A size-threshold classifier ([`FlowClass`]) splits the stream into
//! elephants (fluid rate processes) and mice (full packet treatment); the
//! threshold is a caller knob because the byte split it induces — not the
//! flow split — decides how much packet work the hybrid engine saves.

use crate::flows::{FlowSet, FlowSpec};
use crate::pareto::ParetoFlowSizes;
use crate::tm::TrafficMatrix;
use rand::Rng;
use spineless_topo::Topology;

/// Size-threshold flow classification for the hybrid engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowClass {
    /// Latency-sensitive short flow: full packet treatment in the DES.
    Mouse,
    /// Long-running bulk flow: fluid max-min rate process.
    Elephant,
}

impl FlowClass {
    /// Classifies a flow: `bytes >= threshold_bytes` is an elephant.
    ///
    /// The boundary is inclusive on the elephant side so a threshold of
    /// `u64::MAX` still admits maximal flows and a threshold of `0` sends
    /// every flow to the fluid plane.
    pub fn of(bytes: u64, threshold_bytes: u64) -> FlowClass {
        if bytes >= threshold_bytes {
            FlowClass::Elephant
        } else {
            FlowClass::Mouse
        }
    }
}

/// Generates an open-loop workload: Poisson flow arrivals at a target
/// offered-load rate, endpoints from a rack-level TM, Pareto sizes.
///
/// * `offered_bytes_per_ns` — target injection rate; the flow arrival
///   rate is `offered_bytes_per_ns / sizes.truncated_mean()` so realized
///   bytes track the target in expectation despite the heavy tail;
/// * `window_ns` — arrivals stop at the window edge (flows may finish
///   later; the simulation decides how long to drain).
///
/// Endpoint sampling matches [`FlowSet::from_tm`]: a rack pair per flow
/// from the TM (resampled if it cannot host a two-endpoint flow), uniform
/// servers within racks, distinct `src`/`dst`. Per flow the RNG is
/// consumed in a fixed order — gap, rack pair, servers, size — so one seed
/// pins the entire stream. Flows come out sorted by `start_ns` by
/// construction.
///
/// # Panics
///
/// Panics unless `offered_bytes_per_ns` is positive and finite.
pub fn poisson_from_tm<R: Rng>(
    tm: &TrafficMatrix,
    topo: &Topology,
    offered_bytes_per_ns: f64,
    sizes: &ParetoFlowSizes,
    window_ns: u64,
    rng: &mut R,
) -> FlowSet {
    assert!(
        offered_bytes_per_ns > 0.0 && offered_bytes_per_ns.is_finite(),
        "offered load must be a positive rate"
    );
    let lambda = offered_bytes_per_ns / sizes.truncated_mean();
    let mut flows = Vec::with_capacity((lambda * window_ns as f64) as usize + 1);
    // Accumulate arrival times in f64 (ns): exponential gaps by inverse
    // transform, `-ln(U)/λ`. At realistic rates (≲ 1 flow/ns) and windows
    // (≲ 2^40 ns) the f64 mantissa keeps sub-ns precision, and rounding
    // error does not accumulate faster than the gaps themselves.
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / lambda;
        if t >= window_ns as f64 {
            break;
        }
        let (ra, rb) = loop {
            let (ri, rj) = tm.sample_pair(rng);
            let (ra, rb) = (tm.racks[ri], tm.racks[rj]);
            if ra != rb || topo.servers_on(ra).len() >= 2 {
                break (ra, rb);
            }
        };
        let sa = topo.servers_on(ra);
        let sb = topo.servers_on(rb);
        let src = rng.gen_range(sa.clone());
        let dst = loop {
            let d = rng.gen_range(sb.clone());
            if d != src {
                break d;
            }
        };
        flows.push(FlowSpec {
            src,
            dst,
            bytes: sizes.sample(rng),
            start_ns: t as u64,
        });
    }
    FlowSet { flows, window_ns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spineless_topo::leafspine::LeafSpine;

    fn topo() -> Topology {
        LeafSpine::new(4, 2).build()
    }

    #[test]
    fn classifier_boundary_is_inclusive_elephant() {
        assert_eq!(FlowClass::of(100_000, 100_000), FlowClass::Elephant);
        assert_eq!(FlowClass::of(99_999, 100_000), FlowClass::Mouse);
        assert_eq!(FlowClass::of(100_001, 100_000), FlowClass::Elephant);
        // Degenerate thresholds.
        assert_eq!(FlowClass::of(0, 0), FlowClass::Elephant);
        assert_eq!(FlowClass::of(u64::MAX, u64::MAX), FlowClass::Elephant);
        assert_eq!(FlowClass::of(u64::MAX - 1, u64::MAX), FlowClass::Mouse);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = topo();
        let tm = TrafficMatrix::uniform(&t);
        let sizes = ParetoFlowSizes::paper();
        let a = poisson_from_tm(
            &tm,
            &t,
            0.05,
            &sizes,
            2_000_000,
            &mut SmallRng::seed_from_u64(11),
        );
        let b = poisson_from_tm(
            &tm,
            &t,
            0.05,
            &sizes,
            2_000_000,
            &mut SmallRng::seed_from_u64(11),
        );
        assert_eq!(a.flows, b.flows);
    }

    #[test]
    fn arrivals_are_time_sorted_and_inside_window() {
        let t = topo();
        let tm = TrafficMatrix::uniform(&t);
        let sizes = ParetoFlowSizes::paper();
        let mut rng = SmallRng::seed_from_u64(12);
        let window = 1_000_000;
        let fs = poisson_from_tm(&tm, &t, 0.1, &sizes, window, &mut rng);
        assert!(!fs.is_empty());
        assert!(fs.flows.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        assert!(fs.flows.iter().all(|f| f.start_ns < window));
        assert!(fs.flows.iter().all(|f| f.src != f.dst));
    }

    #[test]
    fn flow_count_tracks_poisson_mean() {
        let t = topo();
        let tm = TrafficMatrix::uniform(&t);
        let sizes = ParetoFlowSizes::paper();
        let mut rng = SmallRng::seed_from_u64(13);
        let window = 20_000_000u64;
        let rate = 100.0; // bytes/ns
        let fs = poisson_from_tm(&tm, &t, rate, &sizes, window, &mut rng);
        let expect = rate * window as f64 / sizes.truncated_mean();
        let got = fs.len() as f64;
        // Poisson sd = sqrt(mean) ≈ 228 at mean ≈ 52k; 5% is > 10 sd.
        assert!(
            (got - expect).abs() / expect < 0.05,
            "got {got}, expect {expect}"
        );
    }

    #[test]
    fn interarrival_gaps_look_exponential() {
        let t = topo();
        let tm = TrafficMatrix::uniform(&t);
        let sizes = ParetoFlowSizes::paper();
        let mut rng = SmallRng::seed_from_u64(14);
        let window = 20_000_000u64;
        let rate = 100.0;
        let fs = poisson_from_tm(&tm, &t, rate, &sizes, window, &mut rng);
        let lambda = rate / sizes.truncated_mean();
        let gaps: Vec<f64> = fs
            .flows
            .windows(2)
            .map(|w| (w[1].start_ns - w[0].start_ns) as f64)
            .collect();
        let n = gaps.len() as f64;
        let mean = gaps.iter().sum::<f64>() / n;
        // Exponential: mean = 1/λ and coefficient of variation = 1.
        assert!(
            (mean - 1.0 / lambda).abs() / (1.0 / lambda) < 0.05,
            "mean {mean}"
        );
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / n;
        let cv2 = var / (mean * mean);
        // u64 truncation of arrival times shaves a little variance at
        // gaps of ~385 ns; accept a broad band around 1.
        assert!((cv2 - 1.0).abs() < 0.15, "cv^2 {cv2}");
    }

    #[test]
    fn realized_bytes_track_offered_load() {
        let t = topo();
        let tm = TrafficMatrix::uniform(&t);
        let sizes = ParetoFlowSizes::paper();
        let mut rng = SmallRng::seed_from_u64(15);
        let window = 20_000_000u64;
        let rate = 100.0;
        let fs = poisson_from_tm(&tm, &t, rate, &sizes, window, &mut rng);
        let offered = rate * window as f64;
        let got = fs.total_bytes() as f64;
        // Heavy-tailed sizes: the byte total is much noisier than the
        // flow count — ballpark band only.
        assert!(
            got > 0.5 * offered && got < 2.0 * offered,
            "got {got}, offered {offered}"
        );
    }

    #[test]
    fn elephants_carry_most_bytes_at_paper_threshold() {
        let t = topo();
        let tm = TrafficMatrix::uniform(&t);
        let sizes = ParetoFlowSizes::paper();
        let mut rng = SmallRng::seed_from_u64(16);
        let fs = poisson_from_tm(&tm, &t, 100.0, &sizes, 20_000_000, &mut rng);
        let threshold = 100_000u64;
        let (mut ele_n, mut ele_b, mut total_b) = (0u64, 0u64, 0u64);
        for f in &fs.flows {
            total_b += f.bytes;
            if FlowClass::of(f.bytes, threshold) == FlowClass::Elephant {
                ele_n += 1;
                ele_b += f.bytes;
            }
        }
        let n_frac = ele_n as f64 / fs.len() as f64;
        let b_frac = ele_b as f64 / total_b as f64;
        // Pareto(α=1.05, x_m≈4762, cap 30MB): P(X ≥ 100k) ≈ 4%, but those
        // flows carry well over half the bytes — the asymmetry the hybrid
        // split exploits.
        assert!(n_frac < 0.08, "elephant flow fraction {n_frac}");
        assert!(b_frac > 0.5, "elephant byte fraction {b_frac}");
    }
}
