//! Property-based tests for the packet simulator and the fluid solver:
//! whatever the workload, conservation laws and fairness invariants hold.

use proptest::prelude::*;
use spineless::fluid::{max_min_rates, solve, LinkSpace};
use spineless::prelude::*;
use spineless::routing::Forwarding;

/// (src, dst, bytes, start_ns) tuples.
type RandomFlows = Vec<(u32, u32, u64, u64)>;

/// Strategy: a small DRing or leaf-spine plus a batch of random flows.
fn topo_and_flows() -> impl Strategy<Value = (Topology, RoutingScheme, RandomFlows)> {
    (any::<bool>(), any::<u64>(), 1usize..24).prop_map(|(dring, seed, nflows)| {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let topo = if dring {
            DRing::uniform(6, 2, 24).build()
        } else {
            LeafSpine::new(6, 2).build()
        };
        let scheme = if dring {
            RoutingScheme::ShortestUnion(2)
        } else {
            RoutingScheme::Ecmp
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = topo.num_servers();
        let flows: Vec<(u32, u32, u64, u64)> = (0..nflows)
            .map(|_| {
                let src = rng.gen_range(0..n);
                let dst = loop {
                    let d = rng.gen_range(0..n);
                    if d != src {
                        break d;
                    }
                };
                (
                    src,
                    dst,
                    rng.gen_range(1..200_000u64),
                    rng.gen_range(0..500_000u64),
                )
            })
            .collect();
        (topo, scheme, flows)
    })
}

/// Strategy for the datapath-equivalence tests: the ISSUE's random
/// DRing/RRG (plus leaf-spine for the pure-ECMP plane) with random flows
/// and transport knobs. Kept separate from [`topo_and_flows`] because RRGs
/// at this size are occasionally disconnected — the datapath tests skip
/// unreachable flows identically on both runs, while the fluid tests
/// assume full reachability.
fn datapath_topo_and_flows(
) -> impl Strategy<Value = (Topology, RoutingScheme, RandomFlows, bool, bool)> {
    (
        0u8..3,
        any::<u64>(),
        1usize..24,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(kind, seed, nflows, dctcp, flowlets)| {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let (topo, scheme) = match kind {
                0 => (
                    DRing::uniform(6, 2, 24).build(),
                    RoutingScheme::ShortestUnion(2),
                ),
                1 => (
                    Rrg::uniform(8, 3, 2, 5, seed).build(),
                    RoutingScheme::ShortestUnion(2),
                ),
                _ => (LeafSpine::new(6, 2).build(), RoutingScheme::Ecmp),
            };
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xDA7A);
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
                    (
                        src,
                        dst,
                        rng.gen_range(1..200_000u64),
                        rng.gen_range(0..500_000u64),
                    )
                })
                .collect();
            (topo, scheme, flows, dctcp, flowlets)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every admitted flow eventually completes, FCTs are bounded below by
    /// the serialization time, and delivered bytes cover every flow.
    #[test]
    fn all_flows_complete_and_fcts_are_physical(
        (topo, scheme, flows) in topo_and_flows()
    ) {
        let fs = ForwardingState::build(&topo.graph, scheme);
        let mut sim = Simulation::new(&topo, fs, SimConfig::default(), 1);
        for &(s, d, b, t) in &flows {
            sim.add_flow(s, d, b, t).expect("valid flow");
        }
        let report = sim.run();
        prop_assert_eq!(report.unfinished(), 0);
        let total: u64 = flows.iter().map(|f| f.2).sum();
        prop_assert!(report.delivered_bytes >= total);
        for rec in &report.flows {
            let fct = rec.fct_ns.expect("finished") as f64;
            // Lower bound: last byte must serialize over at least one link
            // at 1.25 B/ns plus one propagation delay.
            let floor = rec.bytes as f64 / 1.25;
            prop_assert!(fct >= floor, "fct {fct} below physical floor {floor}");
        }
    }

    /// Bit-identical reruns: the simulator is a pure function of
    /// (topology, flows, seed).
    #[test]
    fn simulator_is_deterministic((topo, scheme, flows) in topo_and_flows()) {
        let run = || {
            let fs = ForwardingState::build(&topo.graph, scheme);
            let mut sim = Simulation::new(&topo, fs, SimConfig::default(), 7);
            for &(s, d, b, t) in &flows {
                sim.add_flow(s, d, b, t).expect("valid flow");
            }
            let r = sim.run();
            (r.fcts(), r.events, r.dropped_packets)
        };
        prop_assert_eq!(run(), run());
    }

    /// Fluid solver: no directed link is over capacity, every finite-rate
    /// flow crosses at least one saturated link (max-min bottleneck
    /// property), and all rates are positive.
    #[test]
    fn fluid_allocation_is_max_min((topo, scheme, flows) in topo_and_flows()) {
        let fs = ForwardingState::build(&topo.graph, scheme);
        let demands: Vec<(u32, u32)> = flows.iter().map(|f| (f.0, f.1)).collect();
        let space = LinkSpace::new(&topo);
        // Re-derive the per-flow link sets exactly as solve() does, using
        // the same seed, to audit the allocation.
        let sol = solve(&topo, &fs, &demands, 99);
        prop_assert_eq!(sol.rates.len(), demands.len());
        // Reconstruct usage.
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        let mut links_per_flow: Vec<Vec<u32>> = Vec::new();
        for &(s, d) in &demands {
            let ssw = topo.switch_of(s);
            let dsw = topo.switch_of(d);
            let mut links = vec![space.uplink(s)];
            if ssw != dsw {
                let route = fs.sample_route_generic(ssw, dsw, &mut rng).expect("reachable");
                let mut cur = ssw;
                for &(next, edge) in &route {
                    links.push(space.switch_link(edge, cur));
                    cur = next;
                }
            }
            links.push(space.downlink(d));
            links_per_flow.push(links);
        }
        let mut used = vec![0.0f64; space.num_links() as usize];
        for (fl, &r) in links_per_flow.iter().zip(&sol.rates) {
            prop_assert!(r > 0.0);
            for &l in fl {
                used[l as usize] += r;
            }
        }
        for (l, &u) in used.iter().enumerate() {
            prop_assert!(u <= 1.0 + 1e-6, "link {l} over capacity: {u}");
        }
        // Bottleneck property.
        for (i, fl) in links_per_flow.iter().enumerate() {
            let bottlenecked = fl.iter().any(|&l| used[l as usize] >= 1.0 - 1e-6);
            prop_assert!(bottlenecked, "flow {i} has spare capacity everywhere");
        }
    }

    /// The delay-lane queue pops exactly what the reference heap pops under
    /// random push/pop interleavings with a monotone clock: pushes at
    /// `now + d` for a few recurring delays (the lane regime), more
    /// distinct delays than lanes (exhaustion and reuse), heavy
    /// same-timestamp ties with ranks unrelated to push order (keys
    /// inserted below a lane's tail), and far-future keys up to
    /// `u64::MAX`.
    #[test]
    fn delay_lanes_pop_like_the_heap(
        seed in any::<u64>(), nops in 1usize..2_000, ndelays in 1u64..14
    ) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use spineless::sim::{DelayLanes, HeapQueue};
        let mut rng = SmallRng::seed_from_u64(seed);
        let delays: Vec<u64> = (0..ndelays).map(|_| rng.gen_range(0..20_000u64)).collect();
        let mut lanes: DelayLanes<u64> = DelayLanes::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let (mut now, mut pushes) = (0u64, 0u64);
        for _ in 0..nops {
            if rng.gen_range(0..3u32) == 0 {
                let got = lanes.pop();
                prop_assert_eq!(got, heap.pop());
                if let Some((t, _, _)) = got {
                    prop_assert!(t >= now);
                    now = t;
                }
                continue;
            }
            // A unique rank whose order is unrelated to push order.
            pushes += 1;
            let rank = (rng.gen::<u16>() as u64) << 32 | pushes;
            let t = match rng.gen_range(0..16u32) {
                0 => now.saturating_add(rng.gen_range(0..1u64 << 40)),
                1 => (u64::MAX - rng.gen_range(0..4u64)).max(now),
                2 => now,
                _ => now.saturating_add(delays[rng.gen_range(0..delays.len())]),
            };
            lanes.push(t, rank, rank);
            heap.push(t, rank, rank);
            prop_assert_eq!(lanes.len(), heap.len());
        }
        while let Some(got) = lanes.pop() {
            prop_assert!(got.0 >= now);
            now = got.0;
            prop_assert_eq!(Some(got), heap.pop());
        }
        prop_assert!(heap.is_empty());
    }

    /// Whole-simulation scheduler equivalence: the default delay lanes and
    /// the reference heap produce byte-identical reports — event count
    /// included — on random workloads, lossy or lossless (PFC with
    /// go-back-N).
    #[test]
    fn schedulers_agree_on_random_workloads(
        (topo, scheme, flows) in topo_and_flows(), pfc_gbn in any::<bool>()
    ) {
        use spineless::sim::types::{PfcConfig, Transport};
        let run = |scheduler| {
            let fs = ForwardingState::build(&topo.graph, scheme);
            let cfg = if pfc_gbn {
                SimConfig {
                    scheduler,
                    transport: Transport::GoBackN,
                    pfc: Some(PfcConfig { xoff_bytes: 20_000, xon_bytes: 8_000 }),
                    max_time_ns: 20_000_000,
                    ..Default::default()
                }
            } else {
                SimConfig { scheduler, ..Default::default() }
            };
            let mut sim = Simulation::new(&topo, fs, cfg, 5);
            for &(s, d, b, t) in &flows {
                sim.add_flow(s, d, b, t).expect("valid flow");
            }
            let r = sim.run();
            (r, sim.pkt_hops(), sim.switch_link_tx_bytes())
        };
        prop_assert_eq!(run(Scheduler::Auto), run(Scheduler::ReferenceHeap));
    }

    /// Whole-simulation datapath equivalence: the fast per-packet path
    /// (flat FIB hot-cache, RTO timer wheel, terminal-TxDone elision,
    /// zero-alloc TCP turnaround) and the retained reference path produce
    /// identical physics on random DRing/RRG/leaf-spine workloads under
    /// both transports and with/without flowlet switching — FCTs, drops,
    /// delivered bytes, packet-hops, and per-link tx bytes all byte-equal.
    /// `SimReport::events` is deliberately excluded: elided terminal
    /// TxDones mean the fast path processes fewer events by design.
    #[test]
    fn datapaths_agree_on_random_workloads(
        (topo, scheme, flows, dctcp, flowlets) in datapath_topo_and_flows()
    ) {
        use spineless::sim::types::Transport;
        let run = |datapath| {
            let fs = ForwardingState::build(&topo.graph, scheme);
            let cfg = SimConfig {
                datapath,
                transport: if dctcp { Transport::Dctcp } else { Transport::NewReno },
                flowlet_gap_ns: if flowlets { Some(10_000) } else { None },
                ..Default::default()
            };
            let mut sim = Simulation::new(&topo, fs, cfg, 5);
            for &(s, d, b, t) in &flows {
                // RRGs can be disconnected; rejected flows are rejected
                // identically on both runs.
                let _ = sim.add_flow(s, d, b, t);
            }
            let r = sim.run();
            let hops = sim.pkt_hops();
            let tx = sim.switch_link_tx_bytes();
            (r.fcts(), r.dropped_packets, r.delivered_bytes, hops, tx)
        };
        prop_assert_eq!(run(Datapath::Fast), run(Datapath::Reference));
    }

    /// Datapath equivalence under truncation: a hard `max_time_ns` stop
    /// leaves both paths with the identical set of finished/unfinished
    /// flows and identical partial byte counts.
    #[test]
    fn datapaths_agree_under_truncation(
        (topo, scheme, flows, dctcp, flowlets) in datapath_topo_and_flows(),
        horizon in 50_000u64..2_000_000
    ) {
        use spineless::sim::types::Transport;
        let run = |datapath| {
            let fs = ForwardingState::build(&topo.graph, scheme);
            let cfg = SimConfig {
                datapath,
                max_time_ns: horizon,
                transport: if dctcp { Transport::Dctcp } else { Transport::NewReno },
                flowlet_gap_ns: if flowlets { Some(10_000) } else { None },
                ..Default::default()
            };
            let mut sim = Simulation::new(&topo, fs, cfg, 5);
            for &(s, d, b, t) in &flows {
                let _ = sim.add_flow(s, d, b, t);
            }
            let r = sim.run();
            let hops = sim.pkt_hops();
            let tx = sim.switch_link_tx_bytes();
            (r.fcts(), r.unfinished(), r.dropped_packets, r.delivered_bytes, hops, tx)
        };
        prop_assert_eq!(run(Datapath::Fast), run(Datapath::Reference));
    }

    /// Datapath equivalence under live fault injection: a random schedule
    /// of link/switch down/up events (including repairs of never-failed
    /// elements and repeat cuts, which must be idempotent) with a random
    /// reconvergence delay — from "reacts in 50 us" to "never reacts
    /// within the horizon", the blackhole regime. The fast and reference
    /// paths must produce identical FCTs, finished/unfinished splits,
    /// drops, delivered bytes, packet-hops, and per-link tx bytes, and
    /// the accounting must stay physical: delivered bytes (which count
    /// duplicate deliveries from retransmissions) cover every finished
    /// flow in full.
    #[test]
    fn datapaths_agree_under_random_failure_schedules(
        (topo, scheme, flows, dctcp, flowlets) in datapath_topo_and_flows(),
        raw_events in prop::collection::vec(
            (0u64..3_000_000, 0u8..4, any::<u32>()), 1..6),
        delay in prop_oneof![
            Just(50_000u64),
            Just(100_000u64),
            Just(500_000u64),
            // Far beyond the horizon: the control plane never reacts.
            Just(3_600_000_000_000u64)
        ],
    ) {
        use spineless::sim::types::Transport;
        use std::sync::Arc;
        let ne = topo.graph.edges().len() as u32;
        let nsw = topo.num_switches();
        let mut sched = FailureSchedule::new(delay);
        for &(t, kind, target) in &raw_events {
            sched = match kind {
                0 => sched.link_down(t, target % ne),
                1 => sched.link_up(t, target % ne),
                2 => sched.switch_down(t, target % nsw),
                _ => sched.switch_up(t, target % nsw),
            };
        }
        let run = |datapath| {
            let fs = Arc::new(ForwardingState::build(&topo.graph, scheme));
            let cfg = SimConfig {
                datapath,
                // Finite horizon: a blackholed or stranded flow must end
                // the run instead of hanging it.
                max_time_ns: 20_000_000,
                transport: if dctcp { Transport::Dctcp } else { Transport::NewReno },
                flowlet_gap_ns: if flowlets { Some(10_000) } else { None },
                ..Default::default()
            };
            let mut sim = Simulation::new(&topo, Arc::clone(&fs), cfg, 5);
            for &(s, d, b, t) in &flows {
                let _ = sim.add_flow(s, d, b, t);
            }
            sim.set_failure_schedule(&topo, fs, sched.clone())
                .expect("schedule targets this topology's own elements");
            let r = sim.run();
            let finished_bytes: u64 =
                r.flows.iter().filter(|f| f.fct_ns.is_some()).map(|f| f.bytes).sum();
            let hops = sim.pkt_hops();
            let tx = sim.switch_link_tx_bytes();
            (
                r.fcts(),
                r.unfinished(),
                r.dropped_packets,
                r.delivered_bytes,
                hops,
                tx,
                finished_bytes,
            )
        };
        let fast = run(Datapath::Fast);
        prop_assert!(
            fast.3 >= fast.6,
            "delivered {} below finished flows' {}", fast.3, fast.6
        );
        prop_assert_eq!(fast, run(Datapath::Reference));
    }

    /// PFC lossless fabrics never tail-drop a data packet: across random
    /// DRing/RRG/leaf-spine topologies, all three transports, optional
    /// failure schedules, and both datapaths, `congestion_drops` stays
    /// zero (dead-link flushes are the only permitted loss), delivered
    /// bytes cover every finished flow, and the fast and reference paths
    /// stay byte-identical under pause/resume — including the pause/resume
    /// counters themselves.
    #[test]
    fn pfc_is_lossless_on_random_workloads(
        (topo, scheme, flows, dctcp, _flowlets) in datapath_topo_and_flows(),
        gbn in any::<bool>(),
        with_failures in any::<bool>(),
        raw_events in prop::collection::vec(
            (0u64..3_000_000, 0u8..4, any::<u32>()), 1..5),
    ) {
        use spineless::sim::types::{PfcConfig, Transport};
        use std::sync::Arc;
        let sched = with_failures.then(|| {
            let ne = topo.graph.edges().len() as u32;
            let nsw = topo.num_switches();
            let mut sched = FailureSchedule::new(100_000);
            for &(t, kind, target) in &raw_events {
                sched = match kind {
                    0 => sched.link_down(t, target % ne),
                    1 => sched.link_up(t, target % ne),
                    2 => sched.switch_down(t, target % nsw),
                    _ => sched.switch_up(t, target % nsw),
                };
            }
            sched
        });
        let run = |datapath| {
            let fs = Arc::new(ForwardingState::build(&topo.graph, scheme));
            let cfg = SimConfig {
                datapath,
                pfc: Some(PfcConfig { xoff_bytes: 20_000, xon_bytes: 8_000 }),
                // Finite horizon: PFC on a cyclic flat fabric can deadlock
                // (the paper's pause-tree pathology), and blackholed flows
                // must end the run instead of hanging it.
                max_time_ns: 20_000_000,
                transport: if gbn {
                    Transport::GoBackN
                } else if dctcp {
                    Transport::Dctcp
                } else {
                    Transport::NewReno
                },
                ..Default::default()
            };
            let mut sim = Simulation::new(&topo, Arc::clone(&fs), cfg, 5);
            for &(s, d, b, t) in &flows {
                let _ = sim.add_flow(s, d, b, t);
            }
            if let Some(sch) = &sched {
                sim.set_failure_schedule(&topo, fs, sch.clone())
                    .expect("schedule targets this topology's own elements");
            }
            let r = sim.run();
            let finished_bytes: u64 =
                r.flows.iter().filter(|f| f.fct_ns.is_some()).map(|f| f.bytes).sum();
            let hops = sim.pkt_hops();
            let tx = sim.switch_link_tx_bytes();
            (
                r.congestion_drops,
                r.fcts(),
                r.unfinished(),
                r.delivered_bytes,
                r.pause_frames,
                r.resume_frames,
                r.links_ever_paused,
                r.max_ingress_backlog,
                finished_bytes,
                hops,
                tx,
            )
        };
        let fast = run(Datapath::Fast);
        prop_assert_eq!(fast.0, 0, "PFC tail-dropped a data packet");
        prop_assert!(
            fast.3 >= fast.8,
            "delivered {} below finished flows' {}", fast.3, fast.8
        );
        prop_assert_eq!(fast, run(Datapath::Reference));
    }

    /// Go-back-N on a plain drop-tail (lossy) fabric still completes every
    /// admitted flow and delivers every byte: NACK rollback plus RTO-driven
    /// window resends cover arbitrary loss patterns, down to queues barely
    /// two MTUs deep.
    #[test]
    fn gbn_delivers_all_bytes_despite_drops(
        (topo, scheme, flows) in topo_and_flows(),
        queue_kb in 3u64..16,
    ) {
        use spineless::sim::types::Transport;
        let fs = ForwardingState::build(&topo.graph, scheme);
        let cfg = SimConfig {
            transport: Transport::GoBackN,
            queue_bytes: queue_kb * 1_000,
            // Generous ceiling so a pathological workload fails the
            // unfinished() assertion instead of spinning.
            max_time_ns: 10_000_000_000,
            ..Default::default()
        };
        let mut sim = Simulation::new(&topo, fs, cfg, 9);
        for &(s, d, b, t) in &flows {
            sim.add_flow(s, d, b, t).expect("valid flow");
        }
        let r = sim.run();
        prop_assert_eq!(r.unfinished(), 0);
        let total: u64 = flows.iter().map(|f| f.2).sum();
        prop_assert!(r.delivered_bytes >= total);
    }

    /// The sharded conservative-parallel engine is pinned to the serial
    /// engine: identical full reports (FCTs, retransmit counters, drops,
    /// delivered bytes, pause counters, end time, event count) plus
    /// packet-hops and the per-link transmitted-byte vector, across
    /// random DRing/RRG/leaf-spine
    /// fabrics, both lossy transports or lossless PFC + go-back-N,
    /// optional flowlets, optional failure schedules, 1–8 shards, either
    /// datapath and either serial scheduler.
    #[test]
    fn sharded_engine_matches_reference(
        (topo, scheme, flows, dctcp, flowlets) in datapath_topo_and_flows(),
        shards in 1u32..=8,
        reference_datapath in any::<bool>(),
        heap in any::<bool>(),
        with_failures in any::<bool>(),
        lossless in any::<bool>(),
        raw_events in prop::collection::vec(
            (0u64..3_000_000, 0u8..4, any::<u32>()), 1..5),
    ) {
        use spineless::sim::types::{PfcConfig, Transport};
        use spineless::sim::{Datapath, Scheduler};
        use std::sync::Arc;
        let cfg = SimConfig {
            datapath: if reference_datapath { Datapath::Reference } else { Datapath::Fast },
            max_time_ns: 20_000_000,
            transport: if lossless {
                Transport::GoBackN
            } else if dctcp {
                Transport::Dctcp
            } else {
                Transport::NewReno
            },
            flowlet_gap_ns: if flowlets { Some(10_000) } else { None },
            pfc: lossless.then_some(PfcConfig { xoff_bytes: 20_000, xon_bytes: 8_000 }),
            ..Default::default()
        };
        let fs = Arc::new(ForwardingState::build(&topo.graph, scheme));
        let sched = with_failures.then(|| {
            let ne = topo.graph.edges().len() as u32;
            let nsw = topo.num_switches();
            let mut sched = FailureSchedule::new(100_000);
            for &(t, kind, target) in &raw_events {
                sched = match kind {
                    0 => sched.link_down(t, target % ne),
                    1 => sched.link_up(t, target % ne),
                    2 => sched.switch_down(t, target % nsw),
                    _ => sched.switch_up(t, target % nsw),
                };
            }
            sched
        });
        // RRGs at this size are occasionally disconnected; both engines
        // skip unreachable flows identically.
        let mut serial = Simulation::new(
            &topo,
            Arc::clone(&fs),
            SimConfig {
                scheduler: if heap { Scheduler::ReferenceHeap } else { Scheduler::Auto },
                ..cfg
            },
            5,
        );
        serial.set_shards(1);
        for &(s, d, b, t) in &flows {
            let _ = serial.add_flow(s, d, b, t);
        }
        let mut sharded = Simulation::new(&topo, Arc::clone(&fs), cfg, 5);
        sharded.set_shards(shards);
        for &(s, d, b, t) in &flows {
            let _ = sharded.add_flow(s, d, b, t);
        }
        if let Some(sch) = &sched {
            serial.set_failure_schedule(&topo, Arc::clone(&fs), sch.clone())
                .expect("schedule targets this topology's own elements");
            sharded.set_failure_schedule(&topo, Arc::clone(&fs), sch.clone())
                .expect("schedule targets this topology's own elements");
        }
        let reference = serial.run();
        if lossless {
            prop_assert_eq!(reference.congestion_drops, 0, "PFC tail-dropped a packet");
        }
        let got = sharded.run();
        prop_assert_eq!(
            (got, sharded.pkt_hops(), sharded.switch_link_tx_bytes()),
            (reference, serial.pkt_hops(), serial.switch_link_tx_bytes())
        );
    }

    /// The RTO timer wheel against a sorted-set model: arbitrary
    /// interleavings of (re-)arms, cancels, and bounded sweeps drain in
    /// exact `(time, rank)` order with the right `(key, gen)` payloads,
    /// across all wheel levels and the overflow bucket.
    #[test]
    fn timer_wheel_matches_sorted_model(seed in any::<u64>(), nops in 1usize..300) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use spineless::sim::TimerWheel;
        use std::collections::BTreeSet;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut wheel = TimerWheel::new();
        let mut model: BTreeSet<(u64, u64, u32, u64)> = BTreeSet::new();
        // key -> live (t, seq, gen), mirroring the engine's one-timer-per-
        // flow discipline (re-arm cancels first).
        let mut armed: Vec<Option<(u64, u64, u64)>> = vec![None; 8];
        let mut seq = 0u64;
        let mut lo = 0u64; // inserts stay >= the last sweep bound, like real time
        for _ in 0..nops {
            let key = rng.gen_range(0..8u32);
            match rng.gen_range(0..6u32) {
                0..=2 => {
                    if let Some((t, s, g)) = armed[key as usize].take() {
                        prop_assert!(wheel.cancel(key));
                        model.remove(&(t, s, key, g));
                    }
                    seq += 1;
                    let dt = match rng.gen_range(0..4u32) {
                        0 => rng.gen_range(0..1u64 << 16),  // level 0
                        1 => rng.gen_range(0..1u64 << 22),  // level 1
                        2 => rng.gen_range(0..1u64 << 40),  // deep levels
                        _ => 1u64 << 46,                    // overflow bucket
                    };
                    let t = lo + dt;
                    let gen = rng.gen();
                    wheel.insert(t, seq, key, gen);
                    model.insert((t, seq, key, gen));
                    armed[key as usize] = Some((t, seq, gen));
                }
                3 | 4 => {
                    let had = armed[key as usize].take();
                    prop_assert_eq!(wheel.cancel(key), had.is_some());
                    if let Some((t, s, g)) = had {
                        model.remove(&(t, s, key, g));
                    }
                }
                _ => {
                    // Bounded sweep, as the engine merges wheel timers
                    // into the event stream.
                    let bound = (lo + rng.gen_range(0..1u64 << 24), rng.gen());
                    while let Some(fired) = wheel.pop_before(bound) {
                        let expected = *model.iter().next().expect("model has an entry");
                        prop_assert_eq!(fired, expected);
                        prop_assert!((fired.0, fired.1) < bound);
                        model.remove(&expected);
                        armed[fired.2 as usize] = None;
                    }
                    if let Some(first) = model.iter().next() {
                        prop_assert!((first.0, first.1) >= bound);
                    }
                    lo = bound.0;
                }
            }
        }
        // Full drain: what's left comes out in exact sorted order.
        while let Some(fired) = wheel.pop_earliest() {
            let expected = *model.iter().next().expect("model has an entry");
            prop_assert_eq!(fired, expected);
            model.remove(&expected);
        }
        prop_assert!(model.is_empty());
        prop_assert!(wheel.is_empty());
    }

    /// Both max-min kernels are bit-identical to the full-scan reference:
    /// `max_min_rates`, and `max_min_rates_with`'s rates and per-link
    /// loads. Routes repeat links and may be empty. Three shapes:
    ///
    /// - small: two or three copies of a block of up to a dozen links and
    ///   their flows, each later copy's capacities equal to the block's,
    ///   one ulp off, or off by less than the saturation tolerance;
    /// - copied: the same over blocks of up to 150 links, plus up to seven
    ///   stray flows across the copies: hundreds of links, up to a few
    ///   thousand flows and hundreds of rounds, with exact ties and
    ///   near-ties that the strays partly break;
    /// - sweep-like: hundreds of links of capacity 1, 0.5 or 2 under
    ///   hundreds of routes of up to two links, where levels tie exactly
    ///   in rational arithmetic but are reached through different f64
    ///   sums.
    ///
    /// Other capacities come from a small set that holds values one ulp
    /// apart and residual-like draws in [0.05, 1].
    #[test]
    fn active_list_fluid_matches_reference(seed in any::<u64>(), shape in 0u8..3) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use spineless::fluid::{max_min_rates_with, max_min_reference, FluidScratch};
        let mut rng = SmallRng::seed_from_u64(seed);
        let (block, copies, nflows, max_len) = match shape {
            0 => (rng.gen_range(1..12usize), rng.gen_range(2..4usize), rng.gen_range(0..40usize), 7),
            1 => (rng.gen_range(50..150), rng.gen_range(2..5), rng.gen_range(100..800), 7),
            _ => (rng.gen_range(100..300), 1, rng.gen_range(200..800), 3),
        };
        let links = block * copies;
        let residual = rng.gen_range(0.05..1.0);
        let palette = [
            1.0,
            1.0f64.next_up(),
            1.0f64.next_down(),
            0.5,
            0.5f64.next_up(),
            residual,
            residual.next_up(),
        ];
        let base: Vec<f64> = (0..block)
            .map(|_| match shape {
                2 => [1.0, 0.5, 2.0][rng.gen_range(0..3)],
                _ if rng.gen_bool(0.2) => rng.gen_range(0.05..1.0),
                _ => palette[rng.gen_range(0..palette.len())],
            })
            .collect();
        let mut cap = Vec::with_capacity(links);
        for j in 0..copies {
            let nudge = if j == 0 { 0 } else { rng.gen_range(0..4) };
            cap.extend(base.iter().map(|&c| match nudge {
                0 => c,
                1 => c.next_up(),
                2 => c.next_down(),
                _ => c + 4e-13,
            }));
        }
        let route = |rng: &mut SmallRng, span: usize| -> Vec<u32> {
            let len = rng.gen_range(0..max_len);
            (0..len).map(|_| rng.gen_range(0..span as u32)).collect()
        };
        let mut flows: Vec<Vec<u32>> = Vec::new();
        for _ in 0..nflows {
            let r = route(&mut rng, block);
            for j in 0..copies {
                flows.push(r.iter().map(|&l| l + (j * block) as u32).collect());
            }
        }
        if shape == 1 {
            for _ in 0..rng.gen_range(0..8) {
                flows.push(route(&mut rng, links));
            }
        }
        let (ref_rates, ref_used) = max_min_reference(links, &cap, &flows);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&max_min_rates(links, &cap, &flows)), bits(&ref_rates));
        let mut scratch = FluidScratch::new();
        let mut rates = Vec::new();
        max_min_rates_with(links, &cap, &flows, &mut scratch, &mut rates);
        prop_assert_eq!(bits(&rates), bits(&ref_rates));
        prop_assert_eq!(bits(scratch.link_used()), bits(&ref_used));
    }

    /// Raw max-min kernel: rates are invariant under flow permutation.
    #[test]
    fn max_min_is_symmetric(seed in any::<u64>(), nflows in 2usize..12) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let links = 6usize;
        let flows: Vec<Vec<u32>> = (0..nflows)
            .map(|_| {
                let len = rng.gen_range(1..=3);
                (0..len).map(|_| rng.gen_range(0..links as u32)).collect()
            })
            .collect();
        let cap = vec![1.0; links];
        let base = max_min_rates(links, &cap, &flows);
        // Reverse the flow order; rates must map accordingly.
        let rev: Vec<Vec<u32>> = flows.iter().rev().cloned().collect();
        let rrates = max_min_rates(links, &cap, &rev);
        for (i, r) in base.iter().enumerate() {
            let j = nflows - 1 - i;
            prop_assert!((r - rrates[j]).abs() < 1e-9);
        }
    }
}
