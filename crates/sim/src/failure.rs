//! Dynamic fault injection: timed link/switch failures *during* a packet
//! simulation, with control-plane reconvergence after a configurable delay.
//!
//! The paper's §7 asks how quickly routing can converge around failures in
//! a flat network; the static machinery (`routing::failures`) answers with
//! control-plane rounds, but no packet ever experiences a link dying. A
//! [`FailureSchedule`] closes that gap: a cable is cut while flows are in
//! flight, in-flight packets on the cable are lost, the stale plane
//! blackholes traffic until the reconvergence delay elapses, and then the
//! engine swaps in routing state rebuilt by `ForwardingState::masked` —
//! TCP recovers through its ordinary RTO/retransmit machinery. The rebuilt
//! plane is the intact VRF graph with the dead cables' arcs masked out and
//! fresh labels for every destination, so its vnodes, arcs and edges keep
//! the fabric's ids: its next hops and FIB cache name the plant's link
//! queues directly, as the baseline's do.
//!
//! Every shard count drives one [`Agenda`]: the time-ordered list of
//! control actions (faults and repairs in `(time, index)` order, each
//! followed by a reconvergence `reconverge_delay_ns` later). The serial
//! loop runs its events up to an action's time, applies the action, and
//! carries on; the window protocol's coordinator applies it at a window
//! barrier. At one instant an action applies before every packet event,
//! and neither counts it as an event. The resulting directed-link transitions
//! go through the shared datapath's `set_link_alive`. The hybrid engine's
//! fluid plane drives its own copy of the agenda, so it reads the same
//! fabric state without asking the packet plane for it.
//!
//! Determinism: actions apply at fixed points of the event order, every
//! drop rule is a pure function of event times, and the rebuild consumes
//! no RNG — so the fast and reference datapaths and every shard count stay
//! bit-identical under any schedule (pinned by engine tests and
//! `tests/proptest_sim.rs`).

use crate::datapath::{Plant, SwapPlane};
use crate::engine::SimError;
use crate::types::{Datapath, DirLinkId, Ns, SimConfig};
use spineless_graph::{EdgeId, NodeId};
use spineless_routing::{FibCache, Forwarding, ForwardingState};
use spineless_topo::Topology;
use std::collections::VecDeque;
use std::sync::Arc;

/// One timed fault (or repair) of the physical fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureEvent {
    /// Cut a cable: both directed links die, waiting packets are flushed
    /// (charged to `dropped_packets`), packets on the wire are lost.
    LinkDown(EdgeId),
    /// Splice a cable back in. Routing uses it again only after the next
    /// reconvergence completes.
    LinkUp(EdgeId),
    /// Power a switch off: every incident cable dies, and the switch's
    /// servers lose their uplink/downlink (they are stranded, not removed —
    /// their flows simply stop making progress).
    SwitchDown(NodeId),
    /// Power a switch back on.
    SwitchUp(NodeId),
}

/// A timed sequence of [`FailureEvent`]s plus the control-plane
/// reconvergence delay, installed into a simulation with
/// `Simulation::set_failure_schedule`.
///
/// Every event triggers a reconvergence `reconverge_delay_ns` later; if
/// several events land inside one delay window, only the final
/// reconvergence rebuilds state (superseded ones are no-ops), mirroring a
/// control plane that converges on the *current* topology, not on each
/// intermediate one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureSchedule {
    /// `(time, event)` pairs. Order is free; same-time events apply in
    /// list order.
    pub events: Vec<(Ns, FailureEvent)>,
    /// Delay between a fault and the routing plane reacting to it. Use a
    /// delay past `max_time_ns` to model a control plane that never
    /// reacts (the blackhole baseline).
    pub reconverge_delay_ns: Ns,
}

impl FailureSchedule {
    /// An empty schedule with the given reconvergence delay.
    pub fn new(reconverge_delay_ns: Ns) -> FailureSchedule {
        FailureSchedule {
            events: Vec::new(),
            reconverge_delay_ns,
        }
    }

    /// Appends a [`FailureEvent::LinkDown`] at `t` (builder style).
    pub fn link_down(mut self, t: Ns, edge: EdgeId) -> Self {
        self.events.push((t, FailureEvent::LinkDown(edge)));
        self
    }

    /// Appends a [`FailureEvent::LinkUp`] at `t`.
    pub fn link_up(mut self, t: Ns, edge: EdgeId) -> Self {
        self.events.push((t, FailureEvent::LinkUp(edge)));
        self
    }

    /// Appends a [`FailureEvent::SwitchDown`] at `t`.
    pub fn switch_down(mut self, t: Ns, sw: NodeId) -> Self {
        self.events.push((t, FailureEvent::SwitchDown(sw)));
        self
    }

    /// Appends a [`FailureEvent::SwitchUp`] at `t`.
    pub fn switch_up(mut self, t: Ns, sw: NodeId) -> Self {
        self.events.push((t, FailureEvent::SwitchUp(sw)));
        self
    }

    /// Whether the schedule contains no events (a no-op install).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// An installed [`FailureSchedule`]: the fault state it drives and its
/// control actions, in the order both engines apply them — faults and
/// repairs in `(time, index)` order, each queueing a reconvergence
/// `reconverge_delay_ns` later, and at one instant faults before
/// reconvergences. Only actions at or before the horizon ever apply.
pub(crate) struct Agenda {
    schedule: FailureSchedule,
    /// The intact forwarding plane reconvergence rebuilds degrade from
    /// (shared with the caller, e.g. a `spineless-core` `RoutingCache`
    /// entry).
    baseline: Arc<ForwardingState>,
    /// The intact topology (owned clone): its cables' endpoints turn the
    /// fault state into a dead-edge mask at every reconvergence.
    topo: Topology,
    /// Physical edges currently cut by `LinkDown` events.
    edge_cut: Vec<bool>,
    /// Switches currently downed by `SwitchDown` events.
    switch_down: Vec<bool>,
    /// Per directed link: up iff neither its cable nor an endpoint switch
    /// is down. Diffed to report transitions.
    link_alive: Vec<bool>,
    /// Bumped on every fault/repair; a reconvergence of generation `gen`
    /// only takes effect if `gen` is still the latest epoch (the control
    /// plane restarts its computation when the fabric changes again
    /// mid-flight).
    epoch: u32,
    /// Schedule indices not yet applied, in `(time, index)` order.
    due: VecDeque<u32>,
    /// Pending reconvergences `(time, epoch)`, time-sorted: faults apply
    /// in time order and all share one delay.
    reconv: VecDeque<(Ns, u32)>,
    /// The plane the control plane last converged to (`None` = the intact
    /// baseline).
    plane: Option<Arc<SwapPlane>>,
    max_time: Ns,
    /// Whether rebuilt planes carry a FIB hot-cache (the fast datapath).
    fast: bool,
}

impl Agenda {
    /// Validates `schedule` against a simulation running `cfg` over
    /// `plant` whose forwarding plane has `routers` routers: `topo` must
    /// be the topology it was built over and `baseline` its intact plane.
    pub(crate) fn new(
        topo: &Topology,
        baseline: Arc<ForwardingState>,
        schedule: FailureSchedule,
        plant: &Plant,
        routers: u32,
        cfg: &SimConfig,
    ) -> Result<Agenda, SimError> {
        if baseline.routers() != routers || topo.graph.edges() != &plant.edge_ends[..] {
            return Err(SimError::PlaneMismatch);
        }
        let ne = plant.edge_ends.len() as u32;
        for &(_, ev) in &schedule.events {
            match ev {
                FailureEvent::LinkDown(e) | FailureEvent::LinkUp(e) if e >= ne => {
                    return Err(SimError::BadLink(e));
                }
                FailureEvent::SwitchDown(s) | FailureEvent::SwitchUp(s) if s >= routers => {
                    return Err(SimError::BadSwitch(s));
                }
                _ => {}
            }
        }
        let events = &schedule.events;
        let mut due: Vec<u32> = (0..events.len() as u32)
            .filter(|&i| events[i as usize].0 <= cfg.max_time_ns)
            .collect();
        due.sort_by_key(|&i| (events[i as usize].0, i));
        Ok(Agenda {
            baseline,
            topo: topo.clone(),
            edge_cut: vec![false; ne as usize],
            switch_down: vec![false; routers as usize],
            link_alive: vec![true; plant.num_links()],
            epoch: 0,
            schedule,
            due: due.into(),
            reconv: VecDeque::new(),
            plane: None,
            max_time: cfg.max_time_ns,
            fast: cfg.datapath == Datapath::Fast,
        })
    }

    /// Time of the next action; `None` once none is left.
    pub(crate) fn next_time(&self) -> Option<Ns> {
        let fault = self
            .due
            .front()
            .map(|&i| self.schedule.events[i as usize].0);
        let reconv = self.reconv.front().map(|&(t, _)| t);
        fault.into_iter().chain(reconv).min()
    }

    /// Actions not yet applied. The RTO starvation guard only abandons a
    /// severed flow once this is zero — until then a pending repair or
    /// reconvergence could still revive it.
    pub(crate) fn pending(&self) -> u32 {
        (self.due.len() + self.reconv.len()) as u32
    }

    /// The plane to forward on (`None` = the intact baseline).
    pub(crate) fn plane(&self) -> Option<Arc<SwapPlane>> {
        self.plane.clone()
    }

    /// Whether directed link `l` is up under the actions applied so far.
    pub(crate) fn link_is_alive(&self, l: DirLinkId) -> bool {
        self.link_alive[l as usize]
    }

    /// Applies the next action and returns its time, `None` once none is
    /// left: a fault or repair appends the directed links it flips to
    /// `flips`; a reconvergence on the current epoch rebuilds
    /// [`plane`](Self::plane), and a superseded one (the fabric changed
    /// again since it began, and a fresh one is queued) does nothing.
    pub(crate) fn apply_next(&mut self, flips: &mut Vec<(DirLinkId, bool)>) -> Option<Ns> {
        let fault = self
            .due
            .front()
            .map(|&i| (self.schedule.events[i as usize].0, i));
        match (fault, self.reconv.front().copied()) {
            (Some((t, idx)), r) if r.is_none_or(|(tr, _)| t <= tr) => {
                self.due.pop_front();
                let epoch = self.apply(idx, flips);
                let at = t.saturating_add(self.schedule.reconverge_delay_ns);
                if at <= self.max_time {
                    debug_assert!(self.reconv.back().is_none_or(|&(last, _)| last <= at));
                    self.reconv.push_back((at, epoch));
                }
                Some(t)
            }
            (_, Some((t, epoch))) => {
                self.reconv.pop_front();
                if epoch == self.epoch {
                    self.plane = self.rebuild().map(Arc::new);
                }
                Some(t)
            }
            (_, None) => None,
        }
    }

    /// Applies schedule event `idx` to the fabric, appends every directed
    /// link whose alive state it flips to `out`, and returns the new
    /// epoch (the generation of the reconvergence it triggers).
    fn apply(&mut self, idx: u32, out: &mut Vec<(DirLinkId, bool)>) -> u32 {
        match self.schedule.events[idx as usize].1 {
            FailureEvent::LinkDown(e) => {
                self.edge_cut[e as usize] = true;
                self.refresh_edge(e, out);
            }
            FailureEvent::LinkUp(e) => {
                self.edge_cut[e as usize] = false;
                self.refresh_edge(e, out);
            }
            FailureEvent::SwitchDown(sw) => {
                self.switch_down[sw as usize] = true;
                self.refresh_switch(sw, out);
            }
            FailureEvent::SwitchUp(sw) => {
                self.switch_down[sw as usize] = false;
                self.refresh_switch(sw, out);
            }
        }
        self.epoch += 1;
        self.epoch
    }

    fn set(&mut self, link: DirLinkId, alive: bool, out: &mut Vec<(DirLinkId, bool)>) {
        if self.link_alive[link as usize] != alive {
            self.link_alive[link as usize] = alive;
            out.push((link, alive));
        }
    }

    /// Recomputes both directions of physical edge `e`.
    fn refresh_edge(&mut self, e: EdgeId, out: &mut Vec<(DirLinkId, bool)>) {
        let (a, b) = self.topo.graph.edge(e);
        let alive = !self.edge_cut[e as usize]
            && !self.switch_down[a as usize]
            && !self.switch_down[b as usize];
        self.set(2 * e, alive, out);
        self.set(2 * e + 1, alive, out);
    }

    /// Recomputes every directed link touching switch `sw`: its incident
    /// cables and both directions of its rack's server links.
    fn refresh_switch(&mut self, sw: NodeId, out: &mut Vec<(DirLinkId, bool)>) {
        let ne = self.topo.graph.num_edges();
        for e in 0..ne {
            let (a, b) = self.topo.graph.edge(e);
            if a == sw || b == sw {
                self.refresh_edge(e, out);
            }
        }
        let alive = !self.switch_down[sw as usize];
        let (base_up, base_down) = (2 * ne, 2 * ne + self.topo.num_servers());
        for s in self.topo.servers_on(sw) {
            self.set(base_up + s, alive, out);
            self.set(base_down + s, alive, out);
        }
    }

    /// The plane the control plane converges to on the current fault
    /// state: `None` when nothing is down (the pristine baseline), else
    /// the degraded plane, with its FIB hot-cache on the fast datapath.
    fn rebuild(&self) -> Option<SwapPlane> {
        if !self.edge_cut.contains(&true) && !self.switch_down.contains(&true) {
            return None;
        }
        // A cable is dead when it is cut or either end is powered off.
        let dead: Vec<bool> = (self.topo.graph.edges().iter().zip(&self.edge_cut))
            .map(|(&(a, b), &cut)| {
                cut || self.switch_down[a as usize] || self.switch_down[b as usize]
            })
            .collect();
        let fs = self.baseline.masked(&dead);
        // The plane keeps the fabric's edge ids, so its cache speaks the
        // plant's directed links, as the baseline's does (`new` checked
        // that the topology's edges are the plant's).
        let hot = if self.fast {
            FibCache::build(&fs, self.topo.graph.edges()).map(Arc::new)
        } else {
            None
        };
        Some(SwapPlane { fs, hot })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_in_order() {
        let s = FailureSchedule::new(50_000)
            .link_down(1_000, 3)
            .switch_down(2_000, 1)
            .link_up(5_000, 3)
            .switch_up(6_000, 1);
        assert_eq!(s.reconverge_delay_ns, 50_000);
        assert_eq!(s.events.len(), 4);
        assert_eq!(s.events[0], (1_000, FailureEvent::LinkDown(3)));
        assert_eq!(s.events[3], (6_000, FailureEvent::SwitchUp(1)));
        assert!(!s.is_empty());
        assert!(FailureSchedule::new(0).is_empty());
    }

    #[test]
    fn agenda_applies_faults_before_reconvergences_at_one_instant() {
        // The repair lands exactly when the cut's reconvergence does: the
        // repair applies first and supersedes it, so the degraded plane is
        // never installed, and the repair's own reconvergence keeps the
        // baseline. A fault past the horizon is never listed.
        use spineless_routing::RoutingScheme;
        use spineless_topo::leafspine::LeafSpine;
        let topo = LeafSpine::new(4, 2).build();
        let fs = Arc::new(ForwardingState::build(&topo.graph, RoutingScheme::Ecmp));
        let cfg = SimConfig {
            max_time_ns: 1_000,
            ..SimConfig::default()
        };
        let (plant, _) = Plant::build(&topo, &*fs, &cfg, 1, None);
        let schedule = FailureSchedule::new(50)
            .link_down(100, 0)
            .link_up(150, 0)
            .link_down(1_001, 1);
        let mut agenda =
            Agenda::new(&topo, fs.clone(), schedule, &plant, fs.routers(), &cfg).unwrap();
        assert_eq!(agenda.pending(), 2);
        let (mut flips, mut steps) = (Vec::new(), Vec::new());
        while let Some(t) = agenda.apply_next(&mut flips) {
            steps.push((t, flips.len(), agenda.plane().is_some(), agenda.pending()));
            flips.clear();
        }
        // (time, links flipped, degraded plane installed, actions pending)
        assert_eq!(
            steps,
            [
                (100, 2, false, 2),
                (150, 2, false, 2),
                (150, 0, false, 1),
                (200, 0, false, 0)
            ]
        );
    }
}
