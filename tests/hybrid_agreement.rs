//! Hybrid fluid+packet co-simulation: correctness pins and statistical
//! agreement against the pure-packet reference.
//!
//! Three layers, strongest to weakest guarantee:
//!
//! 1. **Bit-identity** — a hybrid run with no elephants must equal the
//!    plain [`Simulation`] report exactly, on arbitrary workloads with or
//!    without a failure schedule (proptest).
//! 2. **Generator properties** — the open-loop Poisson generator is a pure
//!    function of its seed and always emits well-formed, time-sorted flows
//!    (proptest).
//! 3. **Statistical agreement** — on small fabrics where pure-packet is
//!    cheap, hybrid-mode mice FCT means and per-link byte totals agree
//!    with pure-packet within documented tolerances, averaged over a seed
//!    family (DESIGN.md §13 records the bands and why they are what they
//!    are: elephants skip slow-start and never retransmit, so hybrid runs
//!    slightly *fast* on elephants and slightly perturbs mice).

use proptest::prelude::*;
use spineless::prelude::*;
use std::sync::Arc;

type RandomFlows = Vec<(u32, u32, u64, u64)>;

fn topo_and_flows() -> impl Strategy<Value = (Topology, RandomFlows)> {
    (any::<u64>(), 1usize..24).prop_map(|(seed, nflows)| {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let topo = LeafSpine::new(6, 2).build();
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = topo.num_servers();
        let flows: RandomFlows = (0..nflows)
            .map(|_| {
                let src = rng.gen_range(0..n);
                let dst = loop {
                    let d = rng.gen_range(0..n);
                    if d != src {
                        break d;
                    }
                };
                // Straddle the elephant threshold so both planes see work.
                (
                    src,
                    dst,
                    rng.gen_range(1..400_000u64),
                    rng.gen_range(0..500_000u64),
                )
            })
            .collect();
        (topo, flows)
    })
}

/// Maybe a failure schedule: random link and switch faults and repairs
/// while the flows run, with a control plane that reconverges in 50 us or
/// never within the horizon.
fn maybe_schedule() -> impl Strategy<Value = Option<FailureSchedule>> {
    let events = prop::collection::vec((0u64..600_000, 0u8..4, any::<u32>()), 1..6);
    let delay = prop_oneof![Just(50_000u64), Just(3_600_000_000_000u64)];
    (any::<bool>(), events, delay).prop_map(|(on, events, delay)| {
        on.then(|| {
            let topo = LeafSpine::new(6, 2).build();
            let (ne, nsw) = (topo.graph.num_edges(), topo.num_switches());
            events.into_iter().fold(
                FailureSchedule::new(delay),
                |s, (t, kind, target)| match kind {
                    0 => s.link_down(t, target % ne),
                    1 => s.link_up(t, target % ne),
                    2 => s.switch_down(t, target % nsw),
                    _ => s.switch_up(t, target % nsw),
                },
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With no elephants the hybrid is the plain engine, bit for bit:
    /// identical `SimReport`, merged flow records and end time, on
    /// arbitrary workloads. Under a failure schedule every action opens
    /// a window, so this also pins that splitting the packet run with
    /// `run_until` and installing residuals of 1 change nothing.
    #[test]
    fn hybrid_without_elephants_is_the_plain_engine(
        (topo, flows) in topo_and_flows(),
        schedule in maybe_schedule(),
    ) {
        let fs = Arc::new(ForwardingState::build(&topo.graph, RoutingScheme::Ecmp));
        // Finite horizon: a stranded flow must end the run, not hang it.
        let cfg = SimConfig { max_time_ns: 20_000_000, ..Default::default() };
        let mut plain = Simulation::new(&topo, fs.clone(), cfg, 11);
        let hcfg = HybridConfig { elephant_threshold_bytes: u64::MAX, ..Default::default() };
        let mut hybrid = HybridSimulation::new(&topo, fs.clone(), cfg, hcfg, 11);
        if let Some(s) = &schedule {
            plain.set_failure_schedule(&topo, fs.clone(), s.clone()).expect("valid schedule");
            hybrid.set_failure_schedule(&topo, fs.clone(), s.clone()).expect("valid schedule");
        }
        for &(s, d, b, t) in &flows {
            plain.add_flow(s, d, b, t).expect("valid flow");
            hybrid.add_flow(s, d, b, t).expect("valid flow");
        }
        let rp = plain.run();
        let rh = hybrid.run();
        prop_assert_eq!(&rp, &rh.packet);
        prop_assert_eq!(&rh.flows, &rp.flows);
        prop_assert_eq!(rh.end_ns, rp.end_ns);
        prop_assert_eq!(rh.elephant_count, 0);
        prop_assert_eq!(rh.resolves > 0, schedule.is_some());
    }

    /// Hybrid mode on arbitrary workloads: everything finishes on an
    /// intact fabric, records keep global-id order, and elephant byte
    /// accounting is exact.
    #[test]
    fn hybrid_completes_arbitrary_workloads((topo, flows) in topo_and_flows()) {
        let fs = Arc::new(ForwardingState::build(&topo.graph, RoutingScheme::Ecmp));
        let mut h = HybridSimulation::new(
            &topo, fs, SimConfig::default(), HybridConfig::default(), 11,
        );
        let mut ele_bytes = 0u64;
        for &(s, d, b, t) in &flows {
            h.add_flow(s, d, b, t).expect("valid flow");
            if b >= 100_000 {
                ele_bytes += b;
            }
        }
        let r = h.run();
        prop_assert_eq!(r.unfinished(), 0);
        prop_assert_eq!(r.elephant_bytes_delivered, ele_bytes);
        for (i, f) in r.flows.iter().enumerate() {
            prop_assert_eq!(f.id as usize, i);
            let fct = f.fct_ns.expect("finished") as f64;
            // Physical floor: serialize over one link at full rate. (The
            // fluid plane caps elephants below full rate, so this holds
            // a fortiori.)
            prop_assert!(fct >= f.bytes as f64 / 1.25);
        }
    }

    /// The open-loop generator is a pure function of its seed and always
    /// emits well-formed streams: time-sorted, inside the window, no
    /// self-flows, sizes within the Pareto support.
    #[test]
    fn openloop_generator_is_deterministic_and_well_formed(
        seed in any::<u64>(),
        rate_milli in 1u64..2_000,   // 0.001..2.0 bytes/ns
        window in 100_000u64..4_000_000,
    ) {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let topo = LeafSpine::new(4, 2).build();
        let tm = TrafficMatrix::uniform(&topo);
        let sizes = ParetoFlowSizes::paper();
        let rate = rate_milli as f64 / 1000.0;
        let gen = || {
            let mut rng = SmallRng::seed_from_u64(seed);
            poisson_from_tm(&tm, &topo, rate, &sizes, window, &mut rng)
        };
        let a = gen();
        let b = gen();
        prop_assert_eq!(&a.flows, &b.flows);
        prop_assert!(a.flows.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        for f in &a.flows {
            prop_assert!(f.start_ns < window);
            prop_assert!(f.src != f.dst);
            prop_assert!(f.bytes >= 1);
            prop_assert!(f.bytes <= 30_000_000);
        }
    }
}

/// Statistical agreement, seed-family means (DESIGN.md §13). Small fabric
/// (leaf-spine(4,2), 24 servers) at moderate load so the pure-packet
/// reference stays cheap; 4 seeds; open-loop Poisson arrivals with paper
/// Pareto sizes.
///
/// Tolerances (documented, not aspirational):
/// * mice mean FCT: hybrid within **±25%** of pure-packet — elephants are
///   replaced by smooth rate processes, so mice see steady residual
///   capacity instead of bursty TCP competition;
/// * total switch-link bytes: hybrid (packet + fluid planes combined)
///   within **±10%** of pure-packet — same offered bytes, different
///   retransmit behaviour (the fluid plane never retransmits);
/// * overall completion: hybrid finishes at least as many flows.
#[test]
fn hybrid_statistically_agrees_with_pure_packet() {
    let topo = LeafSpine::new(4, 2).build();
    let tm = TrafficMatrix::uniform(&topo);
    let sizes = ParetoFlowSizes::paper();
    let fs = Arc::new(ForwardingState::build(&topo.graph, RoutingScheme::Ecmp));
    let threshold = 100_000u64;
    let window = 2_000_000u64;
    let rate = 0.5; // bytes/ns offered across the fabric
    let mut mice_ratio_sum = 0.0f64;
    let mut bytes_ratio_sum = 0.0f64;
    let seeds = [3u64, 5, 7, 11];
    for &seed in &seeds {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let flowset = poisson_from_tm(&tm, &topo, rate, &sizes, window, &mut rng);
        let cfg = SimConfig {
            max_time_ns: 50_000_000,
            ..Default::default()
        };

        let mut pure = Simulation::new(&topo, fs.clone(), cfg, seed);
        for f in &flowset.flows {
            pure.add_flow(f.src, f.dst, f.bytes, f.start_ns).unwrap();
        }
        let rp = pure.run();
        let pure_bytes: u64 = pure.switch_link_tx_bytes().iter().sum();

        let hcfg = HybridConfig {
            elephant_threshold_bytes: threshold,
            ..Default::default()
        };
        let mut hybrid = HybridSimulation::new(&topo, fs.clone(), cfg, hcfg, seed);
        for f in &flowset.flows {
            hybrid.add_flow(f.src, f.dst, f.bytes, f.start_ns).unwrap();
        }
        let rh = hybrid.run();
        let hybrid_bytes: f64 = hybrid.switch_link_total_bytes().iter().sum();

        assert!(
            rh.unfinished() <= rp.unfinished(),
            "hybrid left {} unfinished vs pure {}",
            rh.unfinished(),
            rp.unfinished()
        );

        // Mice mean FCT, matched by flow identity (same generator order).
        let mice_mean = |flows: &[spineless::sim::FlowRecord]| {
            let (mut sum, mut n) = (0.0f64, 0u64);
            for (f, spec) in flows.iter().zip(&flowset.flows) {
                assert_eq!(f.bytes, spec.bytes);
                if spec.bytes < threshold {
                    if let Some(fct) = f.fct_ns {
                        sum += fct as f64;
                        n += 1;
                    }
                }
            }
            sum / n as f64
        };
        let mp = mice_mean(&rp.flows);
        let mh = mice_mean(&rh.flows);
        mice_ratio_sum += mh / mp;
        bytes_ratio_sum += hybrid_bytes / pure_bytes as f64;
    }
    let mice_ratio = mice_ratio_sum / seeds.len() as f64;
    let bytes_ratio = bytes_ratio_sum / seeds.len() as f64;
    assert!(
        (mice_ratio - 1.0).abs() < 0.25,
        "mice mean-FCT ratio hybrid/pure = {mice_ratio:.3}, outside ±25%"
    );
    assert!(
        (bytes_ratio - 1.0).abs() < 0.10,
        "switch-link byte ratio hybrid/pure = {bytes_ratio:.3}, outside ±10%"
    );
}

/// The elephant FCTs themselves: the fluid plane must not be wildly
/// optimistic. On a lone bulk flow the hybrid FCT equals the max-min
/// serialization time at the elephant share; pure-packet TCP adds
/// slow-start and ACK overheads on top, so hybrid is faster — but by a
/// bounded factor on a quiet fabric.
#[test]
fn lone_elephant_fct_is_bounded_by_fluid_serialization() {
    let topo = LeafSpine::new(4, 2).build();
    let fs = Arc::new(ForwardingState::build(&topo.graph, RoutingScheme::Ecmp));
    let bytes = 5_000_000u64;
    let mut h = HybridSimulation::new(
        &topo,
        fs.clone(),
        SimConfig::default(),
        HybridConfig::default(),
        3,
    );
    let f = h.add_flow(0, 20, bytes, 0).unwrap();
    let fct_h = h.run().flows[f as usize].fct_ns.unwrap() as f64;
    // Fluid floor: 0.9 link share at 1.25 B/ns.
    let floor = bytes as f64 / (0.9 * 1.25);
    assert!(
        fct_h >= floor * 0.999,
        "hybrid fct {fct_h} beats the fluid floor {floor}"
    );
    let mut p = Simulation::new(&topo, fs, SimConfig::default(), 3);
    let fp = p.add_flow(0, 20, bytes, 0).unwrap();
    let fct_p = p.run().flows[fp as usize].fct_ns.unwrap() as f64;
    // Hybrid may be faster (no slow-start) but within 2x on a quiet net.
    assert!(
        fct_h <= fct_p * 1.05,
        "hybrid fct {fct_h} much slower than packet {fct_p}"
    );
    assert!(
        fct_p <= fct_h * 2.0,
        "packet fct {fct_p} more than 2x hybrid {fct_h}"
    );
}
