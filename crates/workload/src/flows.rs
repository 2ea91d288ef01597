//! Flow-set generation: traffic matrix × flow sizes × start times.
//!
//! §5.2: "The number of flows are determined according to the weights of
//! the TM and flow start times are chosen uniformly at random across the
//! simulation window." Flow counts come from a byte budget (offered load)
//! divided by the size distribution's mean, so the same utilization target
//! produces comparable load on every topology.

use crate::pareto::ParetoFlowSizes;
use crate::tm::TrafficMatrix;
use rand::seq::SliceRandom;
use rand::Rng;
use spineless_topo::Topology;

/// One flow to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source server (global id).
    pub src: u32,
    /// Destination server (global id).
    pub dst: u32,
    /// Flow size, bytes.
    pub bytes: u64,
    /// Start time, ns from simulation start.
    pub start_ns: u64,
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct FlowSet {
    /// The flows, in generation order (not sorted by start time).
    pub flows: Vec<FlowSpec>,
    /// The arrival window the start times were drawn from, ns.
    pub window_ns: u64,
}

impl FlowSet {
    /// Generates flows from a rack-level TM.
    ///
    /// * `offered_bytes` — total bytes to inject over the window;
    /// * `sizes` — flow-size distribution (count = bytes / truncated mean);
    /// * `window_ns` — arrival window; starts are uniform over it.
    ///
    /// Endpoints: a rack pair is drawn per flow from the TM, then uniform
    /// servers within each rack (distinct servers when the pair is a rack
    /// with itself).
    pub fn from_tm<R: Rng>(
        tm: &TrafficMatrix,
        topo: &Topology,
        offered_bytes: u64,
        sizes: &ParetoFlowSizes,
        window_ns: u64,
        rng: &mut R,
    ) -> FlowSet {
        let n_flows = ((offered_bytes as f64 / sizes.truncated_mean()).round() as u64).max(1);
        let mut flows = Vec::with_capacity(n_flows as usize);
        for _ in 0..n_flows {
            // Resample the rack pair if it cannot host a two-endpoint flow
            // (a same-rack pair on a single-server rack); the built-in
            // matrix families never weight such pairs, but a custom matrix
            // could, and the server resample below would never terminate.
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
                start_ns: rng.gen_range(0..window_ns.max(1)),
            });
        }
        FlowSet { flows, window_ns }
    }

    /// Generates flows over explicit server pairs (C-S model §5.2): the
    /// byte budget is spread across flows drawn uniformly from `pairs`.
    pub fn from_pairs<R: Rng>(
        pairs: &[(u32, u32)],
        offered_bytes: u64,
        sizes: &ParetoFlowSizes,
        window_ns: u64,
        rng: &mut R,
    ) -> FlowSet {
        assert!(!pairs.is_empty(), "no demand pairs");
        let n_flows = ((offered_bytes as f64 / sizes.truncated_mean()).round() as u64).max(1);
        let mut flows = Vec::with_capacity(n_flows as usize);
        for _ in 0..n_flows {
            let &(src, dst) = &pairs[rng.gen_range(0..pairs.len())];
            flows.push(FlowSpec {
                src,
                dst,
                bytes: sizes.sample(rng),
                start_ns: rng.gen_range(0..window_ns.max(1)),
            });
        }
        FlowSet { flows, window_ns }
    }

    /// The random-placement (RP) transform of §5.2: "randomly shuffle the
    /// servers across the datacenter" — a fixed random permutation of the
    /// server id space applied to every endpoint.
    pub fn randomly_placed<R: Rng>(&self, num_servers: u32, rng: &mut R) -> FlowSet {
        let mut perm: Vec<u32> = (0..num_servers).collect();
        perm.shuffle(rng);
        let flows = self
            .flows
            .iter()
            .map(|f| FlowSpec {
                src: perm[f.src as usize],
                dst: perm[f.dst as usize],
                ..*f
            })
            .collect();
        FlowSet {
            flows,
            window_ns: self.window_ns,
        }
    }

    /// Total bytes across all flows.
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.bytes).sum()
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// `true` if no flows were generated.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }
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
    fn flow_count_tracks_byte_budget() {
        let t = topo();
        let tm = TrafficMatrix::uniform(&t);
        let sizes = ParetoFlowSizes::paper();
        let mut rng = SmallRng::seed_from_u64(1);
        let budget = 50_000_000;
        let fs = FlowSet::from_tm(&tm, &t, budget, &sizes, 1_000_000, &mut rng);
        let expect = budget as f64 / sizes.truncated_mean();
        assert_eq!(fs.len() as u64, expect.round() as u64);
        // Realized bytes should be in the budget's ballpark (heavy tail).
        let total = fs.total_bytes() as f64;
        assert!(total > 0.3 * budget as f64 && total < 3.0 * budget as f64);
    }

    #[test]
    fn endpoints_live_in_sampled_racks() {
        let t = topo();
        let tm = TrafficMatrix::rack_to_rack(&t, 0, 3);
        let sizes = ParetoFlowSizes::paper();
        let mut rng = SmallRng::seed_from_u64(2);
        let fs = FlowSet::from_tm(&tm, &t, 5_000_000, &sizes, 1_000_000, &mut rng);
        for f in &fs.flows {
            assert_eq!(t.switch_of(f.src), 0);
            assert_eq!(t.switch_of(f.dst), 3);
        }
    }

    #[test]
    fn never_generates_self_flows() {
        let t = topo();
        let tm = TrafficMatrix::uniform(&t); // has same-rack weight
        let sizes = ParetoFlowSizes::paper();
        let mut rng = SmallRng::seed_from_u64(3);
        let fs = FlowSet::from_tm(&tm, &t, 20_000_000, &sizes, 1_000_000, &mut rng);
        assert!(fs.flows.iter().all(|f| f.src != f.dst));
    }

    #[test]
    fn start_times_fill_window() {
        let t = topo();
        let tm = TrafficMatrix::uniform(&t);
        let sizes = ParetoFlowSizes::paper();
        let mut rng = SmallRng::seed_from_u64(4);
        let window = 2_000_000;
        let fs = FlowSet::from_tm(&tm, &t, 30_000_000, &sizes, window, &mut rng);
        assert!(fs.flows.iter().all(|f| f.start_ns < window));
        let early = fs.flows.iter().filter(|f| f.start_ns < window / 2).count();
        let frac = early as f64 / fs.len() as f64;
        assert!((frac - 0.5).abs() < 0.1, "{frac}");
    }

    #[test]
    fn from_pairs_uses_only_given_pairs() {
        let pairs = vec![(0u32, 5u32), (3, 9)];
        let sizes = ParetoFlowSizes::paper();
        let mut rng = SmallRng::seed_from_u64(5);
        let fs = FlowSet::from_pairs(&pairs, 10_000_000, &sizes, 1_000_000, &mut rng);
        for f in &fs.flows {
            assert!(pairs.contains(&(f.src, f.dst)));
        }
    }

    #[test]
    fn random_placement_is_a_permutation() {
        let t = topo();
        let tm = TrafficMatrix::uniform(&t);
        let sizes = ParetoFlowSizes::paper();
        let mut rng = SmallRng::seed_from_u64(6);
        let fs = FlowSet::from_tm(&tm, &t, 10_000_000, &sizes, 1_000_000, &mut rng);
        let rp = fs.randomly_placed(t.num_servers(), &mut rng);
        assert_eq!(fs.len(), rp.len());
        // Sizes and start times unchanged; endpoints permuted consistently.
        for (a, b) in fs.flows.iter().zip(&rp.flows) {
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.start_ns, b.start_ns);
            assert!(b.src < t.num_servers() && b.dst < t.num_servers());
            assert_ne!(b.src, b.dst, "permutation preserves distinctness");
        }
        // The same source always maps to the same image.
        use std::collections::HashMap;
        let mut map = HashMap::new();
        for (a, b) in fs.flows.iter().zip(&rp.flows) {
            assert_eq!(*map.entry(a.src).or_insert(b.src), b.src);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let t = topo();
        let tm = TrafficMatrix::uniform(&t);
        let sizes = ParetoFlowSizes::paper();
        let a = FlowSet::from_tm(
            &tm,
            &t,
            5_000_000,
            &sizes,
            1_000_000,
            &mut SmallRng::seed_from_u64(7),
        );
        let b = FlowSet::from_tm(
            &tm,
            &t,
            5_000_000,
            &sizes,
            1_000_000,
            &mut SmallRng::seed_from_u64(7),
        );
        assert_eq!(a.flows, b.flows);
    }
}
