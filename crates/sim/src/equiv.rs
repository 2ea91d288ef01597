//! The engine-equivalence harness the engine and shard tests share: one
//! scenario — topology, routing scheme, config, seed, flows and an
//! optional failure schedule — run at several shard counts, on every
//! scheduler and datapath the crate has, demanding one outcome.

use crate::engine::Simulation;
use crate::failure::FailureSchedule;
use crate::types::{Datapath, Ns, Scheduler, SimConfig, SimReport};
use spineless_routing::{ForwardingState, RoutingScheme};
use spineless_topo::Topology;
use std::sync::Arc;

/// Flows as `(src, dst, bytes, start_ns)`.
pub(crate) type Flows = [(u32, u32, u64, Ns)];

/// A run's comparable outcome: the full report, pkt-hops and the
/// per-link tx bytes.
pub(crate) type Outcome = (SimReport, u64, Vec<u64>);

/// The forwarding plane `scheme` builds over `topo`.
pub(crate) fn plane(topo: &Topology, scheme: RoutingScheme) -> Arc<ForwardingState> {
    Arc::new(ForwardingState::build(&topo.graph, scheme))
}

/// A simulation pinned to `shards` shards with `flows` admitted and
/// `schedule` installed.
pub(crate) fn sharded(
    topo: &Topology,
    scheme: RoutingScheme,
    cfg: SimConfig,
    seed: u64,
    shards: u32,
    flows: &Flows,
    schedule: Option<&FailureSchedule>,
) -> Simulation<Arc<ForwardingState>> {
    let fs = plane(topo, scheme);
    let mut sim = Simulation::new(topo, fs.clone(), cfg, seed);
    sim.set_shards(shards);
    for &(s, d, b, t) in flows {
        sim.add_flow(s, d, b, t).unwrap();
    }
    if let Some(sch) = schedule {
        sim.set_failure_schedule(topo, fs, sch.clone()).unwrap();
    }
    sim
}

/// The outcome of one run of the serial loop (one shard).
pub(crate) fn run_serial(
    topo: &Topology,
    scheme: RoutingScheme,
    cfg: SimConfig,
    seed: u64,
    flows: &Flows,
    schedule: Option<&FailureSchedule>,
) -> Outcome {
    let mut sim = sharded(topo, scheme, cfg, seed, 1, flows, schedule);
    let r = sim.run();
    (r, sim.pkt_hops(), sim.switch_link_tx_bytes())
}

/// On each datapath, the serial loop under both schedulers and the
/// window protocol at 2, 3 and 8 shards produce one outcome, event count
/// included (one shard is the serial loop, run here too as its own pin),
/// and each run uses the shard count it was pinned to; across datapaths
/// only the event count (the fast one elides no-op events) and the FIB
/// cache differ. Returns the fast datapath's outcome.
pub(crate) fn assert_engines_agree(
    topo: &Topology,
    scheme: RoutingScheme,
    cfg: SimConfig,
    seed: u64,
    flows: &Flows,
    schedule: Option<&FailureSchedule>,
) -> Outcome {
    let mut agreed: Option<Outcome> = None;
    for datapath in [Datapath::Fast, Datapath::Reference] {
        let dcfg = SimConfig { datapath, ..cfg };
        let serial = run_serial(topo, scheme, dcfg, seed, flows, schedule);
        assert!(!serial.0.fcts().is_empty(), "nothing completed");
        let heap = SimConfig {
            scheduler: Scheduler::ReferenceHeap,
            ..dcfg
        };
        assert_eq!(
            run_serial(topo, scheme, heap, seed, flows, schedule),
            serial,
            "{datapath:?}: schedulers diverged"
        );
        for shards in [1, 2, 3, 8] {
            let mut sim = sharded(topo, scheme, dcfg, seed, shards, flows, schedule);
            let r = sim.run();
            assert_eq!(
                sim.shards(),
                shards.min(topo.num_racks()),
                "{datapath:?}: ran at another shard count"
            );
            assert_eq!(
                (r, sim.pkt_hops(), sim.switch_link_tx_bytes()),
                serial,
                "{datapath:?}: shards={shards} diverged from the serial engine"
            );
        }
        match &agreed {
            None => agreed = Some(serial),
            Some(fast) => {
                let mut reference = serial;
                assert!(!reference.0.used_fib_cache && fast.0.used_fib_cache);
                assert!(
                    reference.0.events >= fast.0.events,
                    "Fast processed extra events"
                );
                reference.0.used_fib_cache = true;
                reference.0.events = fast.0.events;
                assert_eq!(&reference, fast, "Reference diverged from Fast");
            }
        }
    }
    agreed.expect("both datapaths ran")
}
