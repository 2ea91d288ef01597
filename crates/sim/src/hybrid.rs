//! Hybrid fluid+packet co-simulation.
//!
//! The paper splits its methodology in two: packet-exact htsim for FCT
//! curves, fluid max-min allocation (Fig. 5) for throughput — because
//! neither alone reaches production scale. This module couples them into
//! one engine. Long-running *elephant* flows ride the active-list fluid
//! solver as rate processes; latency-sensitive *mice* get full packet
//! treatment in the existing DES. The two planes meet at shared links:
//! after every fluid re-solve, each link's residual capacity
//! (`1 − Σ elephant allocation`) is pushed into the packet engine, which
//! serializes subsequent packets at the reduced rate
//! ([`crate::Simulation::set_link_residuals`]). Re-solves are
//! *event-driven* — elephant arrival, elephant departure, failure
//! control-plane activity — never per-packet.
//!
//! ## Handoff protocol
//!
//! The planes share a clock cut into *windows*. Window `k` ends at
//! `tc_end_k`: the next fluid event (elephant arrival, earliest projected
//! departure under current rates, or a failure-schedule action) plus the
//! coalescing slack, never past the next action or the horizon. The
//! packet plane's call sequence is fixed by the windows alone:
//!
//! ```text
//! run_until(tc_end_0), set_link_residuals(residual_0),
//! run_until(tc_end_1), set_link_residuals(residual_1), …, run()
//! ```
//!
//! and the fluid plane never reads the packet plane back: the fabric
//! state routes are sampled against (which links are alive, which plane
//! forwards) comes from the fluid plane's own copy of the failure
//! [`Agenda`], built from the same topology, baseline and schedule and
//! applied up to each window's end. So [`HybridSimulation::run`] is a
//! one-way, two-stage pipeline:
//!
//! 1. the **fluid stage** (the calling thread) picks each window,
//!    integrates elephant progress (`remaining -= rate · dt`, departures
//!    at their exact crossing time), admits arrivals, refreshes routes
//!    after an action and re-solves max-min (scratch-reusing and
//!    allocation-free), sending `RunUntil(tc_end_k)` and then
//!    `Residuals(residual_k)` down a bounded channel;
//! 2. the **packet stage** (a scoped thread borrowing the [`Simulation`])
//!    executes those calls in order and sends nothing back but each spent
//!    residual buffer, for reuse.
//!
//! When the fluid stage runs out of events it hangs up, the packet
//! stage's thread ends, and the calling thread runs the packet plane to
//! the end (`run()`). Each stage sees exactly the state it would see if
//! the planes took turns on one thread, so the run is bit-identical to
//! that (a golden test recorded that way pins it). A panic in either
//! stage closes the channels, ends the other stage, and resurfaces from
//! `run`.
//!
//! Elephants never exceed `1 −` [`MIN_PACKET_SHARE`] of any link, so mice
//! always retain a capacity floor; symmetrically the packet engine clamps
//! residuals at that floor ([`HybridReport::floor_clamps`] counts how
//! often).
//!
//! ## Correctness pinning
//!
//! A hybrid run with no elephants (`elephant_threshold_bytes: u64::MAX`)
//! is bit-identical to the plain [`Simulation`] — same constructor seed,
//! same admission order, and under a failure schedule the windows split
//! the packet run with `run_until` and install residuals of 1, which
//! change nothing. With elephants the hybrid is an approximation; its FCT
//! distributions and per-link utilization are pinned statistically
//! against pure-packet runs (seed-family means, tolerances documented in
//! DESIGN.md §13). Known approximations: elephants transmit at their
//! fluid rate immediately (no slow-start), rate changes apply to packets
//! whose serialization starts after the re-solve, and elephants stall
//! (rate 0) while their path crosses a cut link, re-routing when the
//! control plane reconverges.

use crate::datapath::run_end;
use crate::engine::{SimError, Simulation};
use crate::failure::{Agenda, FailureSchedule};
use crate::types::{Datapath, DirLinkId, FlowRecord, Ns, SimConfig, SimReport};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spineless_fluid::{max_min_rates_with, FluidScratch, LinkSpace};
use spineless_graph::NodeId;
use spineless_routing::{Forwarding, ForwardingState};
use spineless_topo::Topology;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread;

/// Messages the fluid stage may queue ahead of the packet stage. Each
/// window sends two, so the fluid plane runs at most four windows ahead
/// and only a handful of residual buffers ever circulate.
const PIPELINE_DEPTH: usize = 8;

/// Capacity floor the packet plane keeps on every link, as a fraction of
/// link rate; elephants share at most `1 − MIN_PACKET_SHARE`.
pub const MIN_PACKET_SHARE: f64 = 0.1;

/// Knobs for the hybrid split.
#[derive(Debug, Clone, Copy)]
pub struct HybridConfig {
    /// Flows with `bytes >= threshold` go to the fluid plane (the same
    /// inclusive rule as `spineless_workload::FlowClass::of`). The *byte*
    /// split this induces — not the flow split — decides how much packet
    /// work the hybrid saves.
    pub elephant_threshold_bytes: u64,
    /// Fold fluid events within this window into one re-solve (0 = exact:
    /// one re-solve per event). Arrivals admitted inside a window start
    /// transmitting at its end; failure-schedule actions are never folded
    /// past.
    pub resolve_coalesce_ns: Ns,
}

impl Default for HybridConfig {
    fn default() -> HybridConfig {
        HybridConfig {
            elephant_threshold_bytes: 100_000,
            resolve_coalesce_ns: 0,
        }
    }
}

/// Outcome of a hybrid run: merged per-flow records (global flow-id
/// order), the inner packet report, and fluid-plane accounting.
#[derive(Debug, Clone)]
pub struct HybridReport {
    /// One record per admitted flow, indexed by the id
    /// [`HybridSimulation::add_flow`] returned; elephants report zero
    /// retransmits/timeouts (the fluid model has neither).
    pub flows: Vec<FlowRecord>,
    /// The inner packet engine's report (mice only; its flow ids are
    /// internal, use `flows` for the merged view).
    pub packet: SimReport,
    /// Fluid re-solves performed.
    pub resolves: u64,
    /// (Re-solve, link) pairs whose residual sat at the
    /// [`MIN_PACKET_SHARE`] floor: elephants took every share they may.
    pub floor_clamps: u64,
    /// Flows that rode the fluid plane.
    pub elephant_count: usize,
    /// Bytes the fluid plane delivered.
    pub elephant_bytes_delivered: u64,
    /// When the last flow of either plane completed, by the packet
    /// engine's rule ([`SimReport::end_ns`]): with a flow unfinished, the
    /// horizon, or with none the later of the two planes' last activity.
    pub end_ns: Ns,
}

impl HybridReport {
    /// FCTs of completed flows, in ns, unsorted.
    pub fn fcts(&self) -> Vec<Ns> {
        self.flows.iter().filter_map(|f| f.fct_ns).collect()
    }

    /// Number of flows that did not finish.
    pub fn unfinished(&self) -> usize {
        self.flows.iter().filter(|f| f.fct_ns.is_none()).count()
    }
}

/// Where a global flow id landed.
#[derive(Debug, Clone, Copy)]
enum FlowRef {
    /// Inner packet-engine flow id.
    Mouse(u32),
    /// Index into the elephant table.
    Elephant(u32),
}

#[derive(Debug)]
struct Elephant {
    src: u32,
    dst: u32,
    bytes: u64,
    start_ns: Ns,
    /// Bytes not yet delivered by the fluid plane.
    remaining: f64,
    /// Directed links traversed, in [`LinkSpace`] ids (uplink, switch
    /// links, downlink). Empty until admitted; may be resampled after a
    /// reconvergence.
    route: Vec<u32>,
    /// Current fluid allocation, bytes/ns (0 while stalled or inactive).
    rate: f64,
    /// `true` while no live route exists (path cut, plane not yet
    /// reconverged, or destination unreachable).
    stalled: bool,
    fct_ns: Option<Ns>,
}

/// What the fluid stage sends the packet stage, in the order the packet
/// plane must execute it.
enum ToPacket {
    /// `run_until(deadline)`.
    RunUntil(Ns),
    /// `set_link_residuals`, then hand the buffer back for reuse.
    Residuals(Vec<f64>),
}

/// The packet stage has gone (it panicked); its join reports why.
struct Hangup;

/// The fluid stage's ends of the pipeline.
struct Pipe {
    to_packet: SyncSender<ToPacket>,
    spent: Receiver<Vec<f64>>,
}

impl Pipe {
    fn send(&self, msg: ToPacket) -> Result<(), Hangup> {
        self.to_packet.send(msg).map_err(|_| Hangup)
    }
}

/// The packet stage: executes the fluid stage's calls in order until it
/// hangs up.
fn packet_stage(
    sim: &mut Simulation<Arc<ForwardingState>>,
    calls: Receiver<ToPacket>,
    spent: Sender<Vec<f64>>,
) {
    for call in calls {
        match call {
            ToPacket::RunUntil(deadline) => {
                sim.run_until(deadline);
            }
            ToPacket::Residuals(residual) => {
                // The fluid plane's link space is the packet engine's.
                sim.set_link_residuals(&residual)
                    .expect("residual vector length mismatch: one entry per directed link");
                // The fluid stage may have stopped taking buffers back.
                let _ = spent.send(residual);
            }
        }
    }
}

/// The elephant plane: everything the fluid stage owns.
struct FluidPlane {
    fs: Arc<ForwardingState>,
    space: LinkSpace,
    server_switch: Vec<NodeId>,
    hcfg: HybridConfig,
    cfg: SimConfig,
    /// Dedicated route RNG so elephant path sampling never perturbs the
    /// packet engine's seeded streams.
    route_rng: SmallRng,
    elephants: Vec<Elephant>,
    /// The fluid plane's copy of the failure schedule's actions, applied
    /// up to each window's end: the fabric state routes are sampled
    /// against (`None` = no schedule: every link alive, baseline plane).
    agenda: Option<Agenda>,
    /// Per directed link: bytes the fluid plane pushed through it.
    fluid_link_bytes: Vec<f64>,
    /// Fluid clock at the end of the run (ns): the last window edge.
    fluid_end: f64,
    resolves: u64,
    floor_clamps: u64,
    scratch: FluidScratch,
    rate_buf: Vec<f64>,
    /// Re-solve inputs, kept so re-solves allocate nothing: the solved
    /// elephants' indices and their routes, moved out for the solve and
    /// back after it.
    solve_idxs: Vec<u32>,
    solve_routes: Vec<Vec<u32>>,
    /// Per-link capacity offered to elephants (`1 − MIN_PACKET_SHARE`).
    cap: Vec<f64>,
    route_buf: Vec<(NodeId, u32)>,
}

/// The coupled engine. Wraps a packet [`Simulation`] over an
/// `Arc<ForwardingState>` plane plus a fluid elephant plane sharing the
/// same [`LinkSpace`] (the index spaces coincide by construction — both
/// use `2·edge + dir`, then uplinks, then downlinks).
pub struct HybridSimulation {
    sim: Simulation<Arc<ForwardingState>>,
    fluid: FluidPlane,
    flow_map: Vec<FlowRef>,
}

impl HybridSimulation {
    /// Creates a hybrid simulation over `topo` with forwarding plane `fs`
    /// (built from `topo.graph`). `seed` feeds the inner packet engine
    /// exactly as [`Simulation::new`] would — a run without elephants is
    /// bit-identical to a plain simulation constructed with the same
    /// arguments — plus an independent elephant-route RNG.
    ///
    /// # Panics
    ///
    /// Panics if the plane does not match the topology or `cfg` enables
    /// PFC.
    pub fn new(
        topo: &Topology,
        fs: Arc<ForwardingState>,
        cfg: SimConfig,
        hcfg: HybridConfig,
        seed: u64,
    ) -> HybridSimulation {
        // Fluid elephants have no per-ingress buffer occupancy for PFC
        // thresholds to watch, so lossless backpressure cannot reach them;
        // lossless studies run on the plain packet engine.
        assert!(
            cfg.pfc.is_none(),
            "the hybrid co-simulation does not support PFC lossless mode; use Simulation"
        );
        let space = LinkSpace::new(topo);
        let mut sim = Simulation::new(topo, fs.clone(), cfg, seed);
        // The fluid stage owns a core of its own: the packet plane gets
        // one shard.
        sim.set_shards(1);
        assert_eq!(
            space.num_links() as usize,
            sim.num_dir_links(),
            "fluid and packet link spaces diverged"
        );
        let n = space.num_links() as usize;
        let fluid = FluidPlane {
            fs,
            server_switch: sim.plant().server_switch.clone(),
            cfg,
            // Salted so elephant routing is decorrelated from the packet
            // engine's switch salts drawn from the same seed.
            route_rng: SmallRng::seed_from_u64(seed ^ 0xE1E_9A57_F10D_u64),
            elephants: Vec::new(),
            agenda: None,
            fluid_link_bytes: vec![0.0; n],
            fluid_end: 0.0,
            resolves: 0,
            floor_clamps: 0,
            scratch: FluidScratch::new(),
            rate_buf: Vec::new(),
            solve_idxs: Vec::new(),
            solve_routes: Vec::new(),
            cap: vec![1.0 - MIN_PACKET_SHARE; n],
            route_buf: Vec::new(),
            space,
            hcfg,
        };
        HybridSimulation {
            sim,
            fluid,
            flow_map: Vec::new(),
        }
    }

    /// Admits a flow, classifying it by size. Returns the global flow id
    /// ([`HybridReport::flows`] index). Elephants and mice pass the same
    /// admission checks as [`Simulation::add_flow`].
    pub fn add_flow(
        &mut self,
        src: u32,
        dst: u32,
        bytes: u64,
        start_ns: Ns,
    ) -> Result<u32, SimError> {
        let gid = self.flow_map.len() as u32;
        let fl = &mut self.fluid;
        if bytes >= fl.hcfg.elephant_threshold_bytes {
            self.sim.plant().check_flow(&fl.fs, src, dst, bytes)?;
            fl.elephants.push(Elephant {
                src,
                dst,
                bytes,
                start_ns,
                remaining: bytes as f64,
                route: Vec::new(),
                rate: 0.0,
                stalled: false,
                fct_ns: None,
            });
            self.flow_map
                .push(FlowRef::Elephant(fl.elephants.len() as u32 - 1));
        } else {
            let id = self.sim.add_flow(src, dst, bytes, start_ns)?;
            self.flow_map.push(FlowRef::Mouse(id));
        }
        Ok(gid)
    }

    /// Installs a failure schedule on the packet engine (see
    /// [`Simulation::set_failure_schedule`]) and a copy of its actions on
    /// the fluid plane, so a mid-run cut stalls/re-routes elephants
    /// alongside the packet plane's own reconvergence.
    pub fn set_failure_schedule(
        &mut self,
        topo: &Topology,
        baseline: Arc<ForwardingState>,
        schedule: FailureSchedule,
    ) -> Result<(), SimError> {
        self.sim
            .set_failure_schedule(topo, baseline.clone(), schedule.clone())?;
        let fl = &mut self.fluid;
        // The fluid copy samples routes and never forwards a packet, so
        // its rebuilt planes need no FIB cache.
        let cfg = SimConfig {
            datapath: Datapath::Reference,
            ..fl.cfg
        };
        let agenda = Agenda::new(
            topo,
            baseline,
            schedule,
            self.sim.plant(),
            fl.fs.routers(),
            &cfg,
        )?;
        fl.agenda = Some(agenda);
        Ok(())
    }

    /// Packet-link offers the inner engine processed (the wall-clock cost
    /// driver the hybrid split removes for elephant bytes).
    pub fn pkt_hops(&self) -> u64 {
        self.sim.pkt_hops()
    }

    /// Per switch-link total bytes carried — packet-plane transmissions
    /// plus fluid-plane elephant bytes — indexed by directed link id
    /// `2·edge + dir`. The utilization view hybrid-vs-packet agreement is
    /// measured on.
    pub fn switch_link_total_bytes(&self) -> Vec<f64> {
        self.sim
            .switch_link_tx_bytes()
            .iter()
            .enumerate()
            .map(|(l, &b)| b as f64 + self.fluid.fluid_link_bytes[l])
            .collect()
    }

    /// Runs to completion (or the time horizon) and reports: the fluid
    /// plane on this thread, the packet plane on a scoped one (see the
    /// module docs).
    pub fn run(&mut self) -> HybridReport {
        let (sim, fluid) = (&mut self.sim, &mut self.fluid);
        thread::scope(|s| {
            let (to_packet, calls) = sync_channel(PIPELINE_DEPTH);
            let (spent_tx, spent) = channel();
            let stage = s.spawn(move || packet_stage(sim, calls, spent_tx));
            // On a hangup the packet stage has panicked; its join below
            // carries the panic out.
            let _ = fluid.drive(Pipe { to_packet, spent });
            if let Err(panic) = stage.join() {
                std::panic::resume_unwind(panic);
            }
        });
        // Past the last fluid event the packet plane runs on alone.
        let packet = self.sim.run();
        self.merge_report(packet)
    }

    /// Merges the packet report and the elephant table into global-id
    /// order.
    fn merge_report(&self, packet: SimReport) -> HybridReport {
        let fl = &self.fluid;
        let flows: Vec<FlowRecord> = self
            .flow_map
            .iter()
            .enumerate()
            .map(|(gid, r)| match *r {
                FlowRef::Mouse(m) => FlowRecord {
                    id: gid as u32,
                    ..packet.flows[m as usize]
                },
                FlowRef::Elephant(x) => {
                    let e = &fl.elephants[x as usize];
                    FlowRecord {
                        id: gid as u32,
                        src: e.src,
                        dst: e.dst,
                        bytes: e.bytes,
                        start_ns: e.start_ns,
                        fct_ns: e.fct_ns,
                        retransmits: 0,
                        timeouts: 0,
                    }
                }
            })
            .collect();
        let delivered: f64 = fl
            .elephants
            .iter()
            .map(|e| e.bytes as f64 - e.remaining)
            .sum();
        let last_live = self.sim.last_live().max(fl.fluid_end.ceil() as Ns);
        HybridReport {
            end_ns: run_end(&flows, fl.cfg.max_time_ns, last_live),
            flows,
            resolves: fl.resolves,
            floor_clamps: fl.floor_clamps,
            elephant_count: fl.elephants.len(),
            elephant_bytes_delivered: delivered as u64,
            packet,
        }
    }
}

impl FluidPlane {
    /// The fluid stage: walks the windows, feeding the packet stage its
    /// calls.
    fn drive(&mut self, pipe: Pipe) -> Result<(), Hangup> {
        // Arrival agenda: elephant indices by (start time, admission order).
        let mut order: Vec<u32> = (0..self.elephants.len() as u32).collect();
        order.sort_by_key(|&i| (self.elephants[i as usize].start_ns, i));
        let mut next_arr = 0usize;
        let mut active: Vec<u32> = Vec::new();
        let mut last_t = 0.0f64;
        let horizon = self.cfg.max_time_ns;
        loop {
            let t_arr = order.get(next_arr).map_or(f64::INFINITY, |&i| {
                self.elephants[i as usize].start_ns as f64
            });
            let mut t_dep = f64::INFINITY;
            for &i in &active {
                let e = &self.elephants[i as usize];
                if e.rate > 0.0 {
                    t_dep = t_dep.min(last_t + e.remaining / e.rate);
                }
            }
            let tc = t_arr.min(self.next_action()).min(t_dep);
            if tc.is_infinite() {
                break;
            }
            if tc >= horizon as f64 {
                // Horizon: drain the packet plane to it, integrate what
                // the elephants managed, and stop — stragglers report
                // unfinished exactly like packet flows would.
                pipe.send(ToPacket::RunUntil(horizon))?;
                self.advance_fluid(&mut active, last_t, horizon as f64);
                last_t = horizon as f64;
                break;
            }
            // One re-solve window: [tc, tc_end]. Coalescing folds nearby
            // arrivals/departures, but never a failure-schedule action —
            // routes must see the exact post-action fabric. The packet
            // plane applies the same actions inside its `run_until`.
            let mut ctrl_hit = self.apply_actions_through(tc);
            let tc_end = (tc + self.hcfg.resolve_coalesce_ns as f64)
                .min(self.next_action())
                .min(horizon as f64);
            ctrl_hit |= self.apply_actions_through(tc_end);
            pipe.send(ToPacket::RunUntil(tc_end as Ns))?;
            self.advance_fluid(&mut active, last_t, tc_end);
            last_t = tc_end;
            while next_arr < order.len()
                && (self.elephants[order[next_arr] as usize].start_ns as f64) <= tc_end
            {
                let i = order[next_arr];
                next_arr += 1;
                let (src, dst) = {
                    let e = &self.elephants[i as usize];
                    (e.src, e.dst)
                };
                let route = self.sample_route(src, dst);
                let e = &mut self.elephants[i as usize];
                match route {
                    Some(r) => e.route = r,
                    None => e.stalled = true,
                }
                active.push(i);
            }
            if ctrl_hit {
                self.refresh_routes(&active);
            }
            let residual = self.resolve(&active, pipe.spent.try_recv().unwrap_or_default());
            pipe.send(ToPacket::Residuals(residual))?;
        }
        self.fluid_end = last_t;
        Ok(())
    }

    /// Time of the next failure-schedule action, `∞` once none is left.
    fn next_action(&self) -> f64 {
        self.agenda
            .as_ref()
            .and_then(Agenda::next_time)
            .map_or(f64::INFINITY, |t| t as f64)
    }

    /// Applies every failure-schedule action at or before `t`; whether
    /// there was any.
    fn apply_actions_through(&mut self, t: f64) -> bool {
        let Some(agenda) = self.agenda.as_mut() else {
            return false;
        };
        // The agenda keeps its own alive map; the flips are not needed.
        let (mut flips, mut applied) = (Vec::new(), false);
        while agenda.next_time().is_some_and(|at| at as f64 <= t) {
            agenda.apply_next(&mut flips);
            applied = true;
        }
        applied
    }

    /// Whether directed link `l` is up under the actions applied so far.
    fn link_is_alive(&self, l: DirLinkId) -> bool {
        self.agenda.as_ref().is_none_or(|a| a.link_is_alive(l))
    }

    /// Integrates elephant progress over `[from, to]` at current rates:
    /// per-link fluid bytes accumulate (capped at each flow's remaining),
    /// and flows whose remaining crosses zero depart at their exact
    /// crossing time. Departed flows leave `active`.
    fn advance_fluid(&mut self, active: &mut Vec<u32>, from: f64, to: f64) {
        let dt = to - from;
        if dt <= 0.0 {
            return;
        }
        let elephants = &mut self.elephants;
        let fluid_link_bytes = &mut self.fluid_link_bytes;
        active.retain(|&i| {
            let e = &mut elephants[i as usize];
            if e.rate <= 0.0 {
                return true; // stalled or never rated: stays active
            }
            let deliver = (e.rate * dt).min(e.remaining);
            for &l in &e.route {
                fluid_link_bytes[l as usize] += deliver;
            }
            e.remaining -= deliver;
            if e.remaining <= 1e-6 {
                let eta = from + deliver / e.rate;
                e.fct_ns = Some((eta - e.start_ns as f64).round().max(1.0) as Ns);
                e.remaining = 0.0;
                e.rate = 0.0;
                false
            } else {
                true
            }
        });
    }

    /// Samples an elephant route on the plane the agenda has converged to
    /// (a reconverged plane if installed, the baseline otherwise) as
    /// [`LinkSpace`] directed-link ids: uplink, switch links, downlink.
    /// `None` if the pair is unreachable on that plane or the sampled
    /// path crosses a dead link (stale plane before reconvergence).
    fn sample_route(&mut self, src: u32, dst: u32) -> Option<Vec<u32>> {
        let ssw = self.server_switch[src as usize];
        let dsw = self.server_switch[dst as usize];
        let mut links = Vec::with_capacity(self.route_buf.capacity().max(4));
        links.push(self.space.uplink(src));
        if ssw != dsw {
            let swap = self.agenda.as_ref().and_then(Agenda::plane);
            let fs = swap.as_deref().map_or(&*self.fs, |plane| &plane.fs);
            if !fs.sample_route_into(ssw, dsw, &mut self.route_rng, &mut self.route_buf) {
                return None;
            }
            let mut cur = ssw;
            for &(next, edge) in &self.route_buf {
                links.push(self.space.switch_link(edge, cur));
                cur = next;
            }
        }
        links.push(self.space.downlink(dst));
        if links.iter().any(|&l| !self.link_is_alive(l)) {
            return None;
        }
        Some(links)
    }

    /// After a failure-schedule action: unstall elephants whose routes
    /// are whole again, and re-route those crossing dead links (or stalled
    /// since admission) on the now-active plane. Elephants that still
    /// have no live route stall at rate 0 — the fluid analog of TCP
    /// stalling in RTO after a cut.
    fn refresh_routes(&mut self, active: &[u32]) {
        for &i in active {
            let e = &self.elephants[i as usize];
            if e.fct_ns.is_some() {
                continue;
            }
            let intact = !e.route.is_empty() && e.route.iter().all(|&l| self.link_is_alive(l));
            if intact {
                self.elephants[i as usize].stalled = false;
                continue;
            }
            let (src, dst) = (e.src, e.dst);
            let route = self.sample_route(src, dst);
            let e = &mut self.elephants[i as usize];
            match route {
                Some(r) => {
                    e.route = r;
                    e.stalled = false;
                }
                None => {
                    e.stalled = true;
                    e.rate = 0.0;
                }
            }
        }
    }

    /// Max-min re-solve over the active, unstalled elephants: updates
    /// per-flow rates and fills `residual` with the per-link capacity left
    /// to the packet plane.
    fn resolve(&mut self, active: &[u32], mut residual: Vec<f64>) -> Vec<f64> {
        self.resolves += 1;
        let (idxs, routes) = (&mut self.solve_idxs, &mut self.solve_routes);
        idxs.clear();
        routes.clear();
        for &i in active {
            let e = &mut self.elephants[i as usize];
            if !e.stalled {
                idxs.push(i);
                routes.push(std::mem::take(&mut e.route));
            }
        }
        max_min_rates_with(
            self.cap.len(),
            &self.cap,
            &routes[..],
            &mut self.scratch,
            &mut self.rate_buf,
        );
        let bpns = self.cfg.bytes_per_ns();
        for (k, &i) in idxs.iter().enumerate() {
            let e = &mut self.elephants[i as usize];
            e.route = std::mem::take(&mut routes[k]);
            // Routes always hold at least the two NIC links, so rates are
            // finite.
            e.rate = self.rate_buf[k] * bpns;
        }
        residual.clear();
        for &u in self.scratch.link_used() {
            let r = 1.0 - u;
            if r <= MIN_PACKET_SHARE {
                self.floor_clamps += 1;
            }
            residual.push(r.clamp(MIN_PACKET_SHARE, 1.0));
        }
        residual
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailureSchedule;
    use crate::types::Datapath;
    use spineless_routing::RoutingScheme;
    use spineless_topo::leafspine::LeafSpine;

    fn build(racks: u32, spines: u32) -> (Topology, Arc<ForwardingState>) {
        let t = LeafSpine::new(racks, spines).build();
        let fs = Arc::new(ForwardingState::build(&t.graph, RoutingScheme::Ecmp));
        (t, fs)
    }

    /// A deterministic mixed workload: sizes straddle the default
    /// elephant threshold.
    fn mixed_flows(n_servers: u32) -> Vec<(u32, u32, u64, Ns)> {
        let mut v = Vec::new();
        for i in 0..24u32 {
            let src = i % n_servers;
            let dst = (i * 7 + 3) % n_servers;
            if src == dst {
                continue;
            }
            let bytes = if i % 4 == 0 {
                400_000 + (i as u64) * 10_000
            } else {
                20_000 + (i as u64) * 500
            };
            v.push((src, dst, bytes, (i as u64) * 2_000));
        }
        v
    }

    #[test]
    #[should_panic(expected = "does not support PFC")]
    fn hybrid_rejects_pfc() {
        // Fluid elephants carry no buffer occupancy, so PFC backpressure
        // cannot reach them; lossless studies use the plain engine.
        let (t, fs) = build(4, 2);
        let cfg = SimConfig {
            pfc: Some(crate::types::PfcConfig::default()),
            ..Default::default()
        };
        let _ = HybridSimulation::new(&t, fs, cfg, HybridConfig::default(), 1);
    }

    #[test]
    fn hybrid_without_elephants_is_the_plain_engine() {
        // No flow reaches the threshold, so every flow rides the packet
        // plane. Without a schedule no window opens; with one, each action
        // opens a window, so the run is split by `run_until` and residuals
        // of 1 are installed — neither may move the packet plane.
        let (t, fs) = build(4, 2);
        let schedule = FailureSchedule::new(50_000)
            .link_down(20_000, leaf0_spine_edge(&t))
            .link_up(300_000, leaf0_spine_edge(&t));
        for datapath in [Datapath::Fast, Datapath::Reference] {
            for sched in [None, Some(&schedule)] {
                let cfg = SimConfig {
                    datapath,
                    ..Default::default()
                };
                let hcfg = HybridConfig {
                    elephant_threshold_bytes: u64::MAX,
                    ..Default::default()
                };
                let mut plain = Simulation::new(&t, fs.clone(), cfg, 42);
                let mut hybrid = HybridSimulation::new(&t, fs.clone(), cfg, hcfg, 42);
                if let Some(s) = sched {
                    plain
                        .set_failure_schedule(&t, fs.clone(), s.clone())
                        .unwrap();
                    hybrid
                        .set_failure_schedule(&t, fs.clone(), s.clone())
                        .unwrap();
                }
                for &(s, d, b, at) in &mixed_flows(t.num_servers()) {
                    plain.add_flow(s, d, b, at).unwrap();
                    hybrid.add_flow(s, d, b, at).unwrap();
                }
                let rp = plain.run();
                let rh = hybrid.run();
                let case = format!("{datapath:?}, schedule {}", sched.is_some());
                assert_eq!(rp, rh.packet, "{case}: the packet plane moved");
                assert_eq!(rh.flows, rp.flows, "{case}");
                assert_eq!(rh.end_ns, rp.end_ns, "{case}");
                assert_eq!((rh.elephant_count, rh.floor_clamps), (0, 0), "{case}");
                assert_eq!(
                    rh.resolves > 0,
                    sched.is_some(),
                    "{case}: {} re-solves",
                    rh.resolves
                );
                if sched.is_some() {
                    assert!(rp.dropped_packets > 0, "{case}: the cut hit no traffic");
                }
            }
        }
    }

    #[test]
    fn mice_start_in_start_time_then_id_order() {
        // Mice admitted in reverse start order, with ties, start on the
        // packet plane in `(start_ns, flow id)` order, each at its own
        // start time, exactly as in the plain engine.
        let (t, fs) = build(4, 2);
        let hcfg = HybridConfig {
            elephant_threshold_bytes: u64::MAX,
            ..Default::default()
        };
        let cfg = SimConfig::default();
        let mut plain = Simulation::new(&t, fs.clone(), cfg, 43);
        let mut hybrid = HybridSimulation::new(&t, fs, cfg, hcfg, 43);
        let n = t.num_servers();
        let flows: Vec<(u32, u32, u64, Ns)> = (0..16u32)
            .map(|i| (i % n, (i * 5 + 7) % n, 20_000, (15 - i as u64) / 2 * 3_000))
            .filter(|&(s, d, _, _)| s != d)
            .collect();
        for &(s, d, b, at) in &flows {
            plain.add_flow(s, d, b, at).unwrap();
            hybrid.add_flow(s, d, b, at).unwrap();
        }
        let rp = plain.run();
        let rh = hybrid.run();
        assert_eq!(rp, rh.packet);
        let mut want: Vec<(Ns, u32)> = flows
            .iter()
            .enumerate()
            .map(|(f, fl)| (fl.3, f as u32))
            .collect();
        want.sort();
        assert_eq!(hybrid.sim.start_log(), vec![want]);
    }

    #[test]
    fn packet_plane_runs_on_one_shard() {
        // The fluid stage owns a core, so the packet plane never shards,
        // however heavy its mice: 20 000 mice on the paper DRing would
        // shard unpinned on a multi-core host.
        let t = spineless_topo::dring::DRing::paper_config().build();
        let fs = Arc::new(ForwardingState::build(&t.graph, RoutingScheme::Ecmp));
        let cfg = SimConfig::default();
        let mut h = HybridSimulation::new(&t, fs.clone(), cfg, HybridConfig::default(), 5);
        let mut unpinned = Simulation::new(&t, fs, cfg, 5);
        let n = t.num_servers();
        for i in 0..20_000u32 {
            let (src, dst) = (i % n, (i * 7 + 1) % n);
            if src != dst {
                h.add_flow(src, dst, 99_000, i as Ns * 100).unwrap();
                unpinned.add_flow(src, dst, 99_000, i as Ns * 100).unwrap();
            }
        }
        let threads = spineless_graph::par::host_threads();
        assert_eq!(unpinned.shards() > 1, threads > 1, "{threads} threads");
        assert_eq!(h.sim.shards(), 1);
        // And a hybrid that runs reports the one shard it used.
        let (t, fs) = build(16, 4);
        let mut h = HybridSimulation::new(&t, fs, cfg, HybridConfig::default(), 5);
        for (s, d, b, at) in mixed_flows(t.num_servers()) {
            h.add_flow(s, d, b, at).unwrap();
        }
        assert_eq!(h.run().unfinished(), 0);
        assert_eq!(h.sim.shards(), 1);
    }

    #[test]
    fn second_failure_schedule_is_rejected() {
        let (t, fs) = build(4, 2);
        let mut h = hybrid_new(&t, &fs, HybridConfig::default(), 1);
        h.set_failure_schedule(&t, fs.clone(), FailureSchedule::new(0))
            .unwrap();
        let err = h
            .set_failure_schedule(&t, fs.clone(), FailureSchedule::new(0))
            .unwrap_err();
        assert_eq!(err, SimError::ScheduleAlreadySet);
    }

    #[test]
    fn elephants_and_mice_pass_one_admission_check() {
        let (t, fs) = build(4, 2);
        let n = t.num_servers();
        // At threshold 0 every flow, even an empty one, is an elephant.
        for threshold in [0, 100_000, u64::MAX] {
            let hcfg = HybridConfig {
                elephant_threshold_bytes: threshold,
                ..Default::default()
            };
            let mut h = hybrid_new(&t, &fs, hcfg, 1);
            for bytes in [1_000, 1_000_000] {
                assert_eq!(h.add_flow(0, n, bytes, 0), Err(SimError::BadServer(n)));
                assert_eq!(h.add_flow(n, 0, bytes, 0), Err(SimError::BadServer(n)));
            }
            assert_eq!(h.add_flow(0, 1, 0, 0), Err(SimError::EmptyFlow));
            assert_eq!(h.add_flow(0, 1, 1_000_000, 0), Ok(0));
        }
    }

    #[test]
    fn hybrid_completes_everything_and_conserves_bytes() {
        let (t, fs) = build(4, 2);
        let cfg = SimConfig::default();
        let mut h = HybridSimulation::new(&t, fs, cfg, HybridConfig::default(), 7);
        let flows = mixed_flows(t.num_servers());
        let mut total_ele = 0u64;
        let mut n_ele = 0usize;
        for &(s, d, b, at) in &flows {
            h.add_flow(s, d, b, at).unwrap();
            if b >= 100_000 {
                total_ele += b;
                n_ele += 1;
            }
        }
        let r = h.run();
        assert_eq!(
            r.unfinished(),
            0,
            "all flows must finish on an intact fabric"
        );
        assert_eq!(r.elephant_count, n_ele);
        assert_eq!(r.elephant_bytes_delivered, total_ele);
        // One re-solve per elephant arrival and departure, minimum.
        assert!(r.resolves >= 2 * n_ele as u64, "resolves {}", r.resolves);
        // Merged records carry global ids in order.
        for (i, f) in r.flows.iter().enumerate() {
            assert_eq!(f.id as usize, i);
        }
    }

    fn hybrid_new(
        t: &Topology,
        fs: &Arc<ForwardingState>,
        hcfg: HybridConfig,
        seed: u64,
    ) -> HybridSimulation {
        HybridSimulation::new(t, fs.clone(), SimConfig::default(), hcfg, seed)
    }

    #[test]
    fn deterministic_given_seed() {
        let (t, fs) = build(4, 2);
        let run = |seed| {
            let mut h = hybrid_new(&t, &fs, HybridConfig::default(), seed);
            for &(s, d, b, at) in &mixed_flows(t.num_servers()) {
                h.add_flow(s, d, b, at).unwrap();
            }
            let r = h.run();
            (r.fcts(), r.resolves, r.packet.events)
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn elephants_slow_down_sharing_mice() {
        // A mouse alone vs the same mouse beside a long elephant on the
        // same rack pair: residual-capacity modulation must stretch the
        // mouse's FCT. Single spine so ECMP cannot route them apart.
        let (t, fs) = build(4, 1);
        let solo = {
            let mut h = hybrid_new(&t, &fs, HybridConfig::default(), 5);
            h.add_flow(0, 16, 30_000, 1000).unwrap();
            h.run().flows[0].fct_ns.unwrap()
        };
        let shared = {
            let mut h = hybrid_new(&t, &fs, HybridConfig::default(), 5);
            h.add_flow(1, 17, 10_000_000, 0).unwrap(); // elephant, same racks
            let mouse = h.add_flow(0, 16, 30_000, 1000).unwrap();
            h.run().flows[mouse as usize].fct_ns.unwrap()
        };
        assert!(
            shared > solo,
            "mouse beside an elephant ({shared} ns) should be slower than alone ({solo} ns)"
        );
    }

    #[test]
    fn elephant_rates_respect_packet_share_floor() {
        // Two elephants through one downlink: each gets at most
        // (1 - MIN_PACKET_SHARE)/2 of the link; FCT is bounded below
        // accordingly.
        let (t, fs) = build(4, 2);
        let mut h = hybrid_new(&t, &fs, HybridConfig::default(), 9);
        let bytes = 2_000_000u64;
        h.add_flow(4, 0, bytes, 0).unwrap();
        h.add_flow(8, 0, bytes, 0).unwrap();
        let r = h.run();
        // Shared downlink at 0.9 capacity, split two ways: rate ≤ 0.45
        // of 1.25 B/ns → FCT ≥ bytes / 0.5625.
        let floor = (bytes as f64 / (0.45 * 1.25)) as u64;
        for f in &r.flows {
            let fct = f.fct_ns.unwrap();
            assert!(
                fct >= floor,
                "fct {fct} beats the elephant share bound {floor}"
            );
        }
        // The shared downlink (and each uplink) sat at the floor.
        assert!(
            r.floor_clamps > 0,
            "no re-solve clamped a residual at the floor"
        );
        assert!(r.floor_clamps <= r.resolves * h.sim.num_dir_links() as u64);
    }

    #[test]
    fn end_ns_is_the_last_completion_on_either_plane() {
        // With coalescing, the last window reaches a full slack past the
        // last elephant departure; the run still ends at the departure.
        let (t, fs) = build(4, 2);
        let hcfg = HybridConfig {
            resolve_coalesce_ns: 10_000,
            ..Default::default()
        };
        let mut h = hybrid_new(&t, &fs, hcfg, 13);
        h.add_flow(0, 20, 30_000, 0).unwrap();
        h.add_flow(1, 21, 2_000_000, 0).unwrap();
        let r = h.run();
        let done: Vec<Ns> = r
            .flows
            .iter()
            .map(|f| f.start_ns + f.fct_ns.unwrap())
            .collect();
        assert!(
            done[1] > done[0],
            "the elephant should finish last: {done:?}"
        );
        assert_eq!(r.end_ns, done[1]);
        assert!(
            h.fluid.fluid_end > done[1] as f64,
            "the last window should run past the departure"
        );
        // A flow cut short by the horizon: the run ends at the horizon.
        let cfg = SimConfig {
            max_time_ns: 400_000,
            ..Default::default()
        };
        let mut h = HybridSimulation::new(&t, fs.clone(), cfg, hcfg, 13);
        h.add_flow(0, 20, 30_000, 0).unwrap();
        h.add_flow(1, 21, 2_000_000, 0).unwrap();
        let r = h.run();
        assert_eq!(r.unfinished(), 1);
        assert_eq!(r.end_ns, 400_000);
    }

    #[test]
    fn cut_stalls_elephant_until_reconvergence_reroutes_it() {
        // Single-spine leaf-spine: cutting the source rack's only uplink
        // cable severs the elephant; repair + reconvergence must revive
        // and finish it.
        let (t, fs) = build(4, 1);
        // Find the edge leaf0—spine.
        let spine = t.num_switches() - 1;
        let edge = (0..t.graph.num_edges())
            .find(|&e| {
                let (a, b) = t.graph.edge(e);
                (a == 0 && b == spine) || (a == spine && b == 0)
            })
            .expect("leaf0-spine edge");
        let cut_at = 200_000;
        let repair_at = 1_000_000;
        let delay = 50_000;
        let schedule = FailureSchedule::new(delay)
            .link_down(cut_at, edge)
            .link_up(repair_at, edge);
        let mut h = hybrid_new(&t, &fs, HybridConfig::default(), 11);
        h.set_failure_schedule(&t, fs.clone(), schedule).unwrap();
        // Elephant from rack 0 to rack 1; big enough to still be running
        // at the cut.
        let bytes = 1_000_000u64;
        let f = h.add_flow(0, 4, bytes, 0).unwrap();
        let r = h.run();
        let fct = r.flows[f as usize]
            .fct_ns
            .expect("elephant must finish after repair");
        // It was severed from 200 us until repair+reconvergence at
        // 1.05 ms; the FCT must reflect that dead time.
        assert!(
            fct > repair_at + delay - 100_000,
            "fct {fct} should extend past the repair at {repair_at}"
        );
        // Sanity: without the schedule it finishes far earlier.
        let mut h2 = hybrid_new(&t, &fs, HybridConfig::default(), 11);
        let f2 = h2.add_flow(0, 4, bytes, 0).unwrap();
        let fast = h2.run().flows[f2 as usize].fct_ns.unwrap();
        assert!(fast < cut_at + 800_000, "uncut fct {fast}");
        assert!(
            fct > fast,
            "cut run ({fct}) must be slower than uncut ({fast})"
        );
    }

    #[test]
    fn coalescing_preserves_completion_and_accounting() {
        let (t, fs) = build(4, 2);
        let run = |coalesce: Ns| {
            let hcfg = HybridConfig {
                resolve_coalesce_ns: coalesce,
                ..Default::default()
            };
            let mut h = hybrid_new(&t, &fs, hcfg, 13);
            for &(s, d, b, at) in &mixed_flows(t.num_servers()) {
                h.add_flow(s, d, b, at).unwrap();
            }
            let r = h.run();
            (r.unfinished(), r.elephant_bytes_delivered, r.resolves)
        };
        let (u0, b0, r0) = run(0);
        let (u1, b1, r1) = run(5_000);
        assert_eq!(u0, 0);
        assert_eq!(u1, 0);
        assert_eq!(b0, b1, "coalescing must not lose elephant bytes");
        assert!(
            r1 <= r0,
            "coalescing cannot increase re-solves ({r1} vs {r0})"
        );
    }

    /// FNV-1a over everything a hybrid run reports except `end_ns`: the
    /// merged flow records, re-solves, fluid bytes delivered, packet hops
    /// and the bits of the combined per-link byte view.
    fn run_digest(h: &mut HybridSimulation) -> (u64, HybridReport) {
        let r = h.run();
        let mut d = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                d = (d ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for f in &r.flows {
            for x in [f.id as u64, f.src as u64, f.dst as u64, f.bytes, f.start_ns] {
                eat(x);
            }
            eat(f.fct_ns.unwrap_or(u64::MAX));
            eat(f.retransmits as u64);
            eat(f.timeouts as u64);
        }
        eat(r.resolves);
        eat(r.elephant_bytes_delivered);
        eat(h.pkt_hops());
        for b in h.switch_link_total_bytes() {
            eat(b.to_bits());
        }
        (d, r)
    }

    /// The edge between leaf 0 and the last spine.
    fn leaf0_spine_edge(t: &Topology) -> u32 {
        let spine = t.num_switches() - 1;
        (0..t.graph.num_edges())
            .find(|&e| {
                let (a, b) = t.graph.edge(e);
                (a == 0 && b == spine) || (a == spine && b == 0)
            })
            .expect("leaf0-spine edge")
    }

    #[test]
    fn hybrid_golden_digests() {
        // Recorded under the serial loop the pipeline replaced: the
        // pipelined run must reproduce it bit for bit.
        let coalesced = || {
            let (t, fs) = build(4, 2);
            let hcfg = HybridConfig {
                resolve_coalesce_ns: 5_000,
                ..Default::default()
            };
            let mut h = hybrid_new(&t, &fs, hcfg, 13);
            for &(s, d, b, at) in &mixed_flows(t.num_servers()) {
                h.add_flow(s, d, b, at).unwrap();
            }
            run_digest(&mut h).0
        };
        // Cut and repair with reconvergence: on one spine the elephant
        // stalls until the repair; on two it re-routes over the other.
        let failure = |spines: u32| {
            let (t, fs) = build(4, spines);
            let schedule = FailureSchedule::new(50_000)
                .link_down(200_000, leaf0_spine_edge(&t))
                .link_up(1_000_000, leaf0_spine_edge(&t));
            let mut h = hybrid_new(&t, &fs, HybridConfig::default(), 11);
            h.set_failure_schedule(&t, fs.clone(), schedule).unwrap();
            h.add_flow(0, 4, 1_000_000, 0).unwrap();
            // Arrivals at the cut and at its reconvergence draw routes in
            // the same window as the refresh.
            h.add_flow(1, 8, 500_000, 200_000).unwrap();
            h.add_flow(2, 12, 500_000, 250_000).unwrap();
            for &(s, d, b, at) in &mixed_flows(t.num_servers()) {
                h.add_flow(s, d, b, at).unwrap();
            }
            run_digest(&mut h).0
        };
        let truncated = || {
            let (t, fs) = build(4, 2);
            let cfg = SimConfig {
                max_time_ns: 50_000,
                ..Default::default()
            };
            let mut h = HybridSimulation::new(&t, fs.clone(), cfg, HybridConfig::default(), 3);
            for &(s, d, b, at) in &mixed_flows(t.num_servers()) {
                h.add_flow(s, d, b, at).unwrap();
            }
            let (d, r) = run_digest(&mut h);
            let open = |ele: bool| {
                r.flows
                    .iter()
                    .filter(|f| (f.bytes >= 100_000) == ele && f.fct_ns.is_none())
                    .count()
            };
            assert!(
                open(true) > 0 && open(false) > 0,
                "the horizon must cut both planes short"
            );
            d
        };
        // Coalescing folds arrivals into windows that end at an action:
        // the arrival at 190 us opens a window cut short by the fault at
        // 200 us, the one at 240 us a window cut short by the
        // reconvergence at 250 us. Recorded later than the others, with
        // the precomputed list of control times the fluid plane's agenda
        // replaced.
        let coalesced_failure = || {
            let (t, fs) = build(4, 2);
            let schedule = FailureSchedule::new(50_000)
                .link_down(200_000, leaf0_spine_edge(&t))
                .link_up(1_000_000, leaf0_spine_edge(&t));
            let hcfg = HybridConfig {
                resolve_coalesce_ns: 20_000,
                ..Default::default()
            };
            let mut h = hybrid_new(&t, &fs, hcfg, 19);
            h.set_failure_schedule(&t, fs.clone(), schedule).unwrap();
            h.add_flow(0, 4, 1_000_000, 0).unwrap();
            h.add_flow(1, 8, 500_000, 190_000).unwrap();
            h.add_flow(2, 12, 500_000, 240_000).unwrap();
            for &(s, d, b, at) in &mixed_flows(t.num_servers()) {
                h.add_flow(s, d, b, at).unwrap();
            }
            run_digest(&mut h).0
        };
        let got = [
            coalesced(),
            failure(1),
            failure(2),
            truncated(),
            coalesced_failure(),
        ];
        let want = [
            0x3912_6b98_794f_74ed,
            0xa2a8_19e1_17c7_ee60,
            0x6993_c868_8f71_e6a7,
            0xf2ff_e7d7_b211_f204,
            0x02dd_0fa3_05d7_7151,
        ];
        assert_eq!(got, want, "{got:#018x?}");
    }

    /// A hybrid run with traffic on both planes, ready to be broken.
    fn busy_hybrid() -> HybridSimulation {
        let (t, fs) = build(4, 2);
        let mut h = hybrid_new(&t, &fs, HybridConfig::default(), 7);
        for &(s, d, b, at) in &mixed_flows(t.num_servers()) {
            h.add_flow(s, d, b, at).unwrap();
        }
        h
    }

    #[test]
    #[should_panic(expected = "residual vector length mismatch")]
    fn packet_stage_panic_surfaces_from_run() {
        // One link too many: the packet stage rejects the first residual.
        let mut h = busy_hybrid();
        h.fluid.cap.push(1.0);
        h.run();
    }

    #[test]
    #[should_panic(expected = "has no capacity")]
    fn fluid_stage_panic_surfaces_from_run() {
        let mut h = busy_hybrid();
        h.fluid.cap.fill(0.0);
        h.run();
    }

    #[test]
    fn utilization_view_covers_both_planes() {
        let (t, fs) = build(4, 2);
        let mut h = hybrid_new(&t, &fs, HybridConfig::default(), 17);
        h.add_flow(0, 20, 2_000_000, 0).unwrap(); // elephant, crosses spine
        h.add_flow(1, 21, 30_000, 0).unwrap(); // mouse, crosses spine
        let r = h.run();
        assert_eq!(r.unfinished(), 0);
        let total: f64 = h.switch_link_total_bytes().iter().sum();
        // Both flows cross the fabric: the combined view must carry at
        // least the elephant's bytes (fluid) plus the mouse's (packet).
        assert!(total >= 2_000_000.0, "combined switch-link bytes {total}");
        let pkt_only: u64 = h.sim.switch_link_tx_bytes().iter().sum();
        assert!(
            (total - pkt_only as f64) >= 2_000_000.0 * 0.99,
            "fluid share missing"
        );
    }
}
