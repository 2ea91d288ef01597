//! Hybrid fluid+packet co-simulation smoke drill: the open-loop regime on
//! a small fabric, where pure-packet is still cheap enough to act as the
//! reference.
//!
//! Three checks, in increasing looseness:
//!
//! 1. **Bit-identity** — a hybrid run with no elephants must reproduce
//!    the plain packet engine's report exactly, with and without a link
//!    flap (the hybrid wrapper adds nothing but routing of flows between
//!    planes; the flap's windows split the packet run and install
//!    residuals of 1, which must change nothing).
//! 2. **Statistical agreement** — hybrid-mode mice FCT means and combined
//!    switch-link bytes must land inside the DESIGN.md §13 bands against
//!    pure-packet, averaged over a small seed family.
//! 3. **Speed direction** — hybrid must not be slower than pure-packet on
//!    an elephant-heavy open-loop workload (a smoke run only pins the
//!    sign so CI stays fast and unflaky; the paper-scale speed is timed by
//!    `spinebench`'s `hybrid_openloop` workload, and no bar is asserted).
//!
//! Run with: `cargo run --release --example hybrid_smoke`
//! CI smoke mode (smaller, asserts only): `cargo run --release --example hybrid_smoke -- --quick`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use spineless::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let topo = LeafSpine::new(4, 2).build();
    let fs = Arc::new(ForwardingState::build(&topo.graph, RoutingScheme::Ecmp));
    let tm = TrafficMatrix::uniform(&topo);
    let sizes = ParetoFlowSizes::paper();
    let threshold = 100_000u64;
    let window: u64 = if quick { 1_000_000 } else { 4_000_000 };
    let rate = 0.5; // bytes/ns offered — moderate load on 24 servers
    let cfg = SimConfig {
        max_time_ns: 50_000_000,
        ..Default::default()
    };
    let seeds: &[u64] = if quick { &[3, 7] } else { &[3, 5, 7, 11, 13] };

    let mut mice_ratio_sum = 0.0f64;
    let mut bytes_ratio_sum = 0.0f64;
    let mut pure_wall = 0.0f64;
    let mut hybrid_wall = 0.0f64;
    for &seed in seeds {
        let mut rng = SmallRng::seed_from_u64(seed);
        let flows = poisson_from_tm(&tm, &topo, rate, &sizes, window, &mut rng);

        // 1. Bit-identity without elephants, intact and under a flap.
        let mut plain = Simulation::new(&topo, fs.clone(), cfg, seed);
        for f in &flows.flows {
            plain
                .add_flow(f.src, f.dst, f.bytes, f.start_ns)
                .expect("valid flow");
        }
        let t0 = Instant::now();
        let rp = plain.run();
        pure_wall += t0.elapsed().as_secs_f64();
        let flap = FailureSchedule::new(50_000)
            .link_down(window / 4, 0)
            .link_up(window / 2, 0);
        for schedule in [None, Some(flap)] {
            let mut plain = Simulation::new(&topo, fs.clone(), cfg, seed);
            let pcfg = HybridConfig {
                elephant_threshold_bytes: u64::MAX,
                ..Default::default()
            };
            let mut mice = HybridSimulation::new(&topo, fs.clone(), cfg, pcfg, seed);
            if let Some(s) = &schedule {
                plain
                    .set_failure_schedule(&topo, fs.clone(), s.clone())
                    .expect("valid schedule");
                mice.set_failure_schedule(&topo, fs.clone(), s.clone())
                    .expect("valid schedule");
            }
            for f in &flows.flows {
                plain
                    .add_flow(f.src, f.dst, f.bytes, f.start_ns)
                    .expect("valid flow");
                mice.add_flow(f.src, f.dst, f.bytes, f.start_ns)
                    .expect("valid flow");
            }
            let (want, got) = (plain.run(), mice.run());
            assert_eq!(
                want, got.packet,
                "a hybrid run without elephants diverged from the plain engine"
            );
            assert_eq!((want.flows, want.end_ns), (got.flows, got.end_ns));
            assert_eq!(
                got.resolves > 0,
                schedule.is_some(),
                "only a schedule's actions open windows"
            );
        }

        // 2. Hybrid agreement.
        let hcfg = HybridConfig {
            elephant_threshold_bytes: threshold,
            ..Default::default()
        };
        let mut hyb = HybridSimulation::new(&topo, fs.clone(), cfg, hcfg, seed);
        for f in &flows.flows {
            hyb.add_flow(f.src, f.dst, f.bytes, f.start_ns)
                .expect("valid flow");
        }
        let t0 = Instant::now();
        let rh = hyb.run();
        hybrid_wall += t0.elapsed().as_secs_f64();
        assert!(
            rh.unfinished() <= rp.unfinished(),
            "hybrid left more flows unfinished ({}) than pure-packet ({})",
            rh.unfinished(),
            rp.unfinished()
        );
        let (mut psum, mut hsum, mut n) = (0.0f64, 0.0f64, 0u64);
        for (fp, fh) in rp.flows.iter().zip(&rh.flows) {
            if fp.bytes < threshold {
                if let (Some(a), Some(b)) = (fp.fct_ns, fh.fct_ns) {
                    psum += a as f64;
                    hsum += b as f64;
                    n += 1;
                }
            }
        }
        assert!(n > 0, "workload produced no finished mice");
        mice_ratio_sum += (hsum / n as f64) / (psum / n as f64);
        let pure_bytes: u64 = plain.switch_link_tx_bytes().iter().sum();
        let hybrid_bytes: f64 = hyb.switch_link_total_bytes().iter().sum();
        bytes_ratio_sum += hybrid_bytes / pure_bytes as f64;
    }
    let mice_ratio = mice_ratio_sum / seeds.len() as f64;
    let bytes_ratio = bytes_ratio_sum / seeds.len() as f64;
    println!(
        "hybrid smoke: {} seeds — mice mean-FCT ratio {mice_ratio:.3}, switch-link byte \
         ratio {bytes_ratio:.3}; pure {pure_wall:.2}s vs hybrid {hybrid_wall:.2}s",
        seeds.len()
    );
    // DESIGN.md §13 bands: the small-fabric seed-family agreement pin.
    assert!(
        mice_ratio > 0.5 && mice_ratio < 1.5,
        "mice mean-FCT ratio {mice_ratio:.3} outside [0.5, 1.5]"
    );
    assert!(
        (bytes_ratio - 1.0).abs() < 0.15,
        "switch-link byte ratio {bytes_ratio:.3} outside +/-15%"
    );
    // 3. Speed direction (paper scale is timed by spinebench's
    // hybrid_openloop, with no bar asserted). Quick mode runs
    // a handful of flows where wall times are noise, so only the full
    // drill pins the sign.
    if !quick {
        assert!(
            hybrid_wall < pure_wall,
            "hybrid ({hybrid_wall:.2}s) must not be slower than pure-packet ({pure_wall:.2}s)"
        );
    }
    println!("hybrid smoke: all agreement assertions passed");
}
