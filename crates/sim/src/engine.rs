//! [`Simulation`], the packet engine: wires topology, forwarding state,
//! link queues and TCP together, and runs them on one or more shards.
//!
//! Time is nanoseconds; the event queue orders by `(time, content rank)`
//! — a key that depends only on what an event is — so runs are exactly
//! reproducible regardless of the scheduler implementation (see
//! [`crate::equeue`]) and of the shard count. Each packet hop costs two
//! events (serialization done, arrival after propagation), matching
//! htsim's store-and-forward model. The per-packet handlers are the
//! shared `datapath` core. This module owns the serial event loop and
//! [`SerialSink`], the scheduling every shard of the window protocol
//! ([`crate::shard`]) runs too; failure-schedule actions come from the
//! shared [`Agenda`](crate::failure::Agenda) and apply between events.

use crate::datapath::{
    entity_of, rank, rank_of, run_end, Core, Ev, Plant, Sink, Tally, CLASS_FLOW_START, CLASS_RTO,
};
use crate::equeue::{EventQueue, TimerWheel};
use crate::failure::{Agenda, FailureSchedule};
use crate::shard::{choose_engine, estimate_events, Sharded};
use crate::types::{Datapath, DirLinkId, FlowId, FlowRecord, Ns, SimConfig, SimReport};
use spineless_graph::par;
use spineless_routing::{FibCache, Forwarding, ForwardingState};
use spineless_topo::{partition_domains, Topology};
use std::sync::{Arc, OnceLock};

/// Error from flow admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The pair is not connected under the installed routing scheme.
    Unreachable {
        /// Source server.
        src: u32,
        /// Destination server.
        dst: u32,
    },
    /// A server id was out of range.
    BadServer(u32),
    /// Zero-byte flows are not admitted.
    EmptyFlow,
    /// A failure schedule named an edge id the topology does not have.
    BadLink(u32),
    /// A failure schedule named a switch id the topology does not have.
    BadSwitch(u32),
    /// `set_failure_schedule` was called twice on one simulation.
    ScheduleAlreadySet,
    /// The topology/baseline handed to `set_failure_schedule` does not
    /// match what this simulation was built over.
    PlaneMismatch,
    /// `set_link_residuals` was handed a vector that does not cover each
    /// directed link exactly once.
    ResidualLength {
        /// Entries handed over.
        got: usize,
        /// Directed links in the fabric.
        want: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Unreachable { src, dst } => {
                write!(f, "no route between servers {src} and {dst}")
            }
            SimError::BadServer(s) => write!(f, "server {s} out of range"),
            SimError::EmptyFlow => write!(f, "zero-byte flow"),
            SimError::BadLink(e) => write!(f, "failure schedule names edge {e}, which is out of range"),
            SimError::BadSwitch(s) => write!(f, "failure schedule names switch {s}, which is out of range"),
            SimError::ScheduleAlreadySet => write!(f, "a failure schedule is already installed"),
            SimError::PlaneMismatch => write!(
                f,
                "failure schedule's topology/baseline does not match the simulation's forwarding plane"
            ),
            SimError::ResidualLength { got, want } => {
                write!(f, "{got} link residuals for {want} directed links")
            }
        }
    }
}
impl std::error::Error for SimError {}

/// The serial loop's [`Sink`]: one event queue, the list of flows yet to
/// start, and the RTO timing wheel on the fast datapath. Each shard of
/// the window protocol schedules its own events on one too.
pub(crate) struct SerialSink {
    queue: EventQueue<Ev>,
    /// Admitted flows that have not started, as `(start_ns, flow, sender
    /// slot)`. Starts never enter the event queue: [`Self::next_event`]
    /// merges this list into the event stream at each start's `(time,
    /// rank)` key, and the rank of a start orders by flow id. Kept in
    /// descending order, so the next start is the last entry. Admission
    /// appends; one sort, at the first pop after an out-of-order
    /// admission, restores the order.
    starts: Vec<(Ns, FlowId, u32)>,
    /// Whether `starts` is in descending order.
    starts_sorted: bool,
    /// Starts admitted so far.
    admitted: u32,
    /// RTO timers live here instead of the event queue on the fast
    /// datapath: armed/re-armed once per ACK, cancelled eagerly, merged
    /// back into the event stream by [`Self::next_event`] at their exact
    /// `(time, rank)` key. Keyed by sender slot; the flow id comes back
    /// out of the rank.
    wheel: TimerWheel,
    /// Whether RTOs go to the wheel (fast datapath) or the queue.
    wheel_rtos: bool,
    /// The next main-queue event, held while merging with the wheel.
    staged: Option<(Ns, u64, Ev)>,
}

impl SerialSink {
    /// An empty sink: the event queue `cfg.scheduler` selects, with RTOs
    /// on the timing wheel on the fast datapath.
    pub(crate) fn new(cfg: &SimConfig) -> SerialSink {
        SerialSink {
            queue: EventQueue::new(cfg.scheduler),
            starts: Vec::new(),
            starts_sorted: true,
            admitted: 0,
            wheel: TimerWheel::new(),
            wheel_rtos: cfg.datapath == Datapath::Fast,
            staged: None,
        }
    }

    /// Admits a flow start: flow `f`, whose sender sits at `slot`,
    /// starts at `t`.
    pub(crate) fn add_start(&mut self, t: Ns, f: FlowId, slot: u32) {
        let start = (t, f, slot);
        self.starts_sorted &= self.starts.last().is_none_or(|&least| start < least);
        self.starts.push(start);
        self.admitted += 1;
    }

    /// Makes room for `n` more starts, exactly.
    pub(crate) fn reserve_starts(&mut self, n: usize) {
        self.starts.reserve_exact(n);
    }

    /// The `(time, rank)` key of the next flow start, if any.
    #[inline]
    fn next_start(&mut self) -> Option<(Ns, u64)> {
        if !self.starts_sorted {
            self.sort_starts();
        }
        let &(t, f, _) = self.starts.last()?;
        Some((t, rank(CLASS_FLOW_START, f, 0)))
    }

    /// Restores the descending order of `starts`; out of line, as it runs
    /// once per admission batch.
    #[cold]
    #[inline(never)]
    fn sort_starts(&mut self) {
        self.starts.sort_unstable_by(|a, b| b.cmp(a));
        self.starts_sorted = true;
    }

    /// A lower bound on the next event's time — exact but for a timer
    /// cancelled since the wheel last scanned — or `Ns::MAX` when nothing
    /// is pending. Stages the next queue event.
    pub(crate) fn head_time(&mut self) -> Ns {
        if self.staged.is_none() {
            self.staged = self.queue.pop();
        }
        let staged = self.staged.map_or(Ns::MAX, |(t, _, _)| t);
        let start = self.next_start().map_or(Ns::MAX, |(t, _)| t);
        staged.min(start).min(self.wheel.min_time())
    }

    /// Pops the next event at or before `deadline` in global `(time,
    /// rank)` order, merging the main event queue, the flow starts and
    /// the RTO timing wheel; later events stay in place. The next queue
    /// event is staged so its key, with the next start's, can bound the
    /// wheel lookup — in the common case (no timer due first) that bound
    /// check is a single comparison against the wheel's cached minimum.
    /// A finite deadline caps the bound at `(deadline + 1, 0)`: every
    /// timer at `t <= deadline` sorts strictly below it, and the anchor
    /// advance it triggers is sound because the caller stops processing
    /// at `deadline` and every later insert lands after it.
    pub(crate) fn next_event(&mut self, deadline: Ns) -> Option<(Ns, u64, Ev)> {
        self.next_event_below(
            deadline
                .checked_add(1)
                .map_or((Ns::MAX, u64::MAX), |c| (c, 0)),
        )
    }

    /// [`next_event`](Self::next_event) bounded by a key: pops the next
    /// event whose `(time, rank)` is below `cap`. The anchor advance is
    /// sound for the same reason: the caller processes nothing below
    /// `cap` but what this returns.
    pub(crate) fn next_event_below(&mut self, cap: (Ns, u64)) -> Option<(Ns, u64, Ev)> {
        if self.staged.is_none() {
            self.staged = self.queue.pop();
        }
        let staged = self.staged.map_or((Ns::MAX, u64::MAX), |(t, r, _)| (t, r));
        let (head, start_first) = match self.next_start() {
            Some(start) if start < staged => (start, true),
            _ => (staged, false),
        };
        if let Some((t, r, slot, gen)) = self.wheel.pop_before(head.min(cap)) {
            return Some((t, r, Ev::Rto(entity_of(r), slot, gen)));
        }
        if head >= cap {
            None
        } else if start_first {
            let (t, f, slot) = self.starts.pop().expect("a start is next");
            Some((t, head.1, Ev::FlowStart(f, slot)))
        } else {
            self.staged.take()
        }
    }
}

impl Sink for SerialSink {
    /// Enqueues `ev` under its content rank, keeping the staged-event slot
    /// coherent: a handler popped ahead of the staged event — a timer's, or
    /// a flow start's — may emit events that precede it (e.g. a
    /// retransmitted packet's wire events vs a far-future arrival, or a
    /// materialized `TxDone`), in which case the staged event must return
    /// to the queue or it would be processed out of order.
    #[inline]
    fn push(&mut self, t: Ns, ev: Ev) {
        let r = rank_of(&ev);
        if let Some(&(st, sr, _)) = self.staged.as_ref() {
            if (t, r) < (st, sr) {
                let (st, sr, sev) = self.staged.take().expect("just checked");
                self.queue.push(st, sr, sev);
            }
        }
        self.queue.push(t, r, ev);
    }

    fn arm_rto(&mut self, t: Ns, flow: FlowId, slot: u32, gen: u64) {
        if self.wheel_rtos {
            // The wheel holds at most one live timer per sender: re-arming
            // replaces the stale one eagerly (the reference path leaves it
            // in the queue as a no-op event) under the key the reference
            // `push` would use, so the global (time, rank) streams stay
            // aligned.
            self.wheel.insert(t, rank(CLASS_RTO, flow, gen), slot, gen);
        } else {
            self.push(t, Ev::Rto(flow, slot, gen));
        }
    }

    fn disarm_rto(&mut self, slot: u32) {
        if self.wheel_rtos {
            self.wheel.cancel(slot);
        }
    }

    // One shard owns everything: a slot is the flow or link id itself.

    fn receiver_of(&self, slot: u32) -> u32 {
        slot
    }

    fn sender_of(&self, slot: u32) -> u32 {
        slot
    }

    fn tail_slot(&self, l: DirLinkId) -> usize {
        l as usize
    }

    fn head_slot(&self, l: DirLinkId) -> usize {
        l as usize
    }

    fn owns_tail(&self, _: DirLinkId) -> bool {
        true
    }

    fn owns_head(&self, _: DirLinkId) -> bool {
        true
    }

    fn pending_starts(&self) -> usize {
        self.starts.len()
    }

    fn slots(&self) -> [u32; 2] {
        [self.admitted; 2]
    }

    #[cfg(test)]
    fn state_vecs(&self) -> Vec<crate::datapath::StateVec> {
        vec![
            self.wheel.key_state(),
            crate::datapath::state_vec("starts", &self.starts),
        ]
    }
}

/// The serial event loop: one datapath core over the whole fabric.
struct Serial<F: Forwarding> {
    core: Core<Arc<F>, SerialSink>,
    events: u64,
    /// Time of the last event processed.
    #[cfg(test)]
    max_t: Ns,
}

impl<F: Forwarding> Serial<F> {
    /// Schedules flow `f`'s start; its state is created when it starts.
    fn admit(&mut self, f: FlowId) {
        let c = &mut self.core;
        c.sink.add_start(c.plant.specs[f as usize].start_ns, f, f);
    }

    /// Processes every event and failure-schedule action at or before
    /// `deadline`: the events before the next action's time `tc`, then
    /// the action at `tc` — ahead of every event at `tc`, where the
    /// window protocol applies it at a barrier — and so on. An action is
    /// not an event.
    fn advance(&mut self, mut agenda: Option<&mut Agenda>, deadline: Ns) {
        loop {
            let next = agenda.as_ref().and_then(|a| a.next_time());
            let tc = next.filter(|&tc| tc <= deadline);
            if let Some(until) = tc.map_or(Some(deadline), |tc| tc.checked_sub(1)) {
                while let Some((t, key, ev)) = self.core.sink.next_event(until) {
                    #[cfg(test)]
                    {
                        self.max_t = self.max_t.max(t);
                    }
                    self.events += 1;
                    self.core.handle(t, key, ev);
                }
            }
            let Some(agenda) = agenda.as_deref_mut().filter(|_| tc.is_some()) else {
                return;
            };
            let mut flips = Vec::new();
            let c = &mut self.core;
            c.now = agenda.apply_next(&mut flips).expect("tc is due");
            for (link, alive) in flips {
                c.set_link_alive(link, alive);
            }
            c.install_plane(agenda.plane());
            c.ctrl_pending = agenda.pending();
        }
    }
}

/// What a [`Simulation`] runs on, fixed at its first advance (or by a
/// pin to one shard).
enum Engine<F: Forwarding> {
    /// No shards yet: admitted flows are specs only.
    Idle,
    /// One shard: the serial event loop.
    Serial(Box<Serial<F>>),
    /// Two or more shards under the window protocol.
    Sharded(Box<Sharded<F>>),
}

/// A packet-level simulation of one topology + routing + workload triple.
///
/// Generic over the forwarding plane: plain [`ForwardingState`] (ECMP or
/// Shortest-Union(K)) by default, or any [`Forwarding`] implementation —
/// e.g. the adaptive [`spineless_routing::DualPlane`].
///
/// A simulation runs on one or more shards. At its first
/// [`run`](Self::run) or [`run_until`](Self::run_until) it fixes the shard
/// count — the one [`set_shards`](Self::set_shards) pinned, else the one
/// [`choose_engine`] picks for the admitted workload and the host — and
/// hands every admitted flow's start to the shard that owns its sender
/// (pinned to one shard, at admission). A flow's TCP state exists only
/// while it runs: its sender from its start to its completion, its
/// receiver from its first data to its last in-order byte, each in the
/// shard that owns it. One shard is the serial event loop; more
/// run the window protocol of [`crate::shard`], one thread per shard, the
/// caller's included. Every shard count gives the same [`SimReport`], bit
/// for bit.
pub struct Simulation<F: Forwarding = ForwardingState> {
    cfg: SimConfig,
    /// The forwarding plane, shared by every shard.
    fs: Arc<F>,
    /// The fabric, kept to partition it at the first advance.
    topo: Topology,
    /// Fabric geometry and admitted flows, shared with every shard. The
    /// serial loop's core owns it alone (this handle is then an empty
    /// placeholder), so admission extends it in place.
    plant: Arc<Plant>,
    /// The baseline plane's FIB hot-cache, if any.
    hot: Option<Arc<FibCache>>,
    /// The installed failure schedule's actions; `None` = static fabric.
    agenda: Option<Box<Agenda>>,
    /// Shard count [`set_shards`](Self::set_shards) pinned; `None` picks
    /// one at the first advance.
    pinned: Option<u32>,
    /// Link residuals installed before the first advance.
    residuals: Option<Arc<[f64]>>,
    engine: Engine<F>,
    /// The last finished run's [`SimReport::end_ns`].
    end_ns: Ns,
}

impl<F: Forwarding> Simulation<F> {
    /// Creates a simulation over `topo` with the given forwarding plane
    /// (which must have been built from `topo.graph`).
    ///
    /// # Panics
    ///
    /// Panics if the forwarding plane's router count does not match the
    /// topology, or if the PFC thresholds have no hysteresis.
    pub fn new(topo: &Topology, fs: F, cfg: SimConfig, seed: u64) -> Simulation<F> {
        Self::with_fib_cache(topo, fs, cfg, seed, None)
    }

    /// [`new`](Self::new) with an optional pre-built FIB hot-cache, so
    /// callers timing the simulation (benchmarks) can hoist the one-time
    /// [`FibCache::build`] cost out of the measured region. `cache` must
    /// have been built from this exact `fs` and `topo` (the debug-mode
    /// cross-checks catch a mismatch); `None` builds one here when the
    /// fast datapath is selected.
    pub fn with_fib_cache(
        topo: &Topology,
        fs: F,
        cfg: SimConfig,
        seed: u64,
        cache: Option<Arc<FibCache>>,
    ) -> Simulation<F> {
        let (plant, hot) = Plant::build(topo, &fs, &cfg, seed, cache);
        Simulation {
            cfg,
            fs: Arc::new(fs),
            topo: topo.clone(),
            plant: Arc::new(plant),
            hot,
            agenda: None,
            pinned: None,
            residuals: None,
            engine: Engine::Idle,
            end_ns: 0,
        }
    }

    /// Pins the shard count (clamped to `[1, racks]`) instead of letting
    /// [`choose_engine`] pick one at the first advance. For equivalence
    /// tests, benchmarks and callers that already run simulations in
    /// parallel. `1` runs the serial event loop, which needs no partition:
    /// it is created at once, and flows are scheduled as they are
    /// admitted.
    ///
    /// # Panics
    ///
    /// Panics if the shards exist already: after the first advance, or
    /// after an earlier pin to one shard.
    pub fn set_shards(&mut self, shards: u32) {
        assert!(
            matches!(self.engine, Engine::Idle),
            "set_shards after the shards were created"
        );
        self.pinned = Some(shards);
        if shards <= 1 {
            self.start();
        }
    }

    /// The shard count the simulation runs with: once it has advanced,
    /// the count its run used; before, the count its first advance would
    /// pick for the flows admitted so far.
    pub fn shards(&self) -> u32 {
        match &self.engine {
            Engine::Idle => self.planned_shards(),
            Engine::Serial(_) => 1,
            Engine::Sharded(s) => s.len(),
        }
    }

    /// The pinned shard count, else [`choose_engine`]'s on this host;
    /// never more than the racks.
    fn planned_shards(&self) -> u32 {
        let want = self.pinned.unwrap_or_else(|| {
            let specs = &self.plant.specs;
            let lossless = self.cfg.pfc.is_some();
            let est = estimate_events(specs.iter().map(|s| s.bytes), self.cfg.mss_bytes, lossless);
            let threads = par::host_threads() as u32;
            choose_engine(self.topo.num_switches(), specs.len() as u64, est, threads)
        });
        want.clamp(1, self.topo.num_racks().max(1))
    }

    /// Installs a dynamic [`FailureSchedule`]: each fault/repair applies at
    /// its time, before every event at that time, and after each fabric
    /// change the control plane reconverges `reconverge_delay_ns` later by
    /// swapping in routing state rebuilt from `baseline` via
    /// [`ForwardingState::masked`], which masks the dead cables out of the
    /// intact plane and keeps its edge ids, so in-flight packets and link
    /// queues need no translation.
    /// Until the swap lands, traffic keeps following the stale plane and
    /// blackholes at cut links — exactly the window the paper's
    /// shortcut-aware failure story is about.
    ///
    /// `topo` must be the topology this simulation was built over and
    /// `baseline` the intact [`ForwardingState`] the active plane forwards
    /// with (for `Simulation<ForwardingState>`/`Arc<ForwardingState>`
    /// planes, the same state — reuse the `Arc` handed to the
    /// constructor). Must be called before [`run`](Self::run), at most
    /// once; before or after [`add_flow`](Self::add_flow) makes no
    /// difference.
    pub fn set_failure_schedule(
        &mut self,
        topo: &Topology,
        baseline: Arc<ForwardingState>,
        schedule: FailureSchedule,
    ) -> Result<(), SimError> {
        if self.agenda.is_some() {
            return Err(SimError::ScheduleAlreadySet);
        }
        let agenda = Agenda::new(
            topo,
            baseline,
            schedule,
            self.plant(),
            self.fs.routers(),
            &self.cfg,
        )?;
        match &mut self.engine {
            Engine::Idle => {}
            Engine::Serial(s) => {
                s.core.enable_faults();
                s.core.ctrl_pending = agenda.pending();
            }
            Engine::Sharded(s) => s.cores_mut().for_each(|c| c.enable_faults()),
        }
        self.agenda = Some(Box::new(agenda));
        Ok(())
    }

    /// Whether the fast datapath is forwarding through a FIB hot-cache
    /// (as opposed to walking the forwarding plane per hop).
    pub fn uses_fib_cache(&self) -> bool {
        match &self.engine {
            Engine::Idle => self.hot.is_some(),
            Engine::Serial(s) => s.core.hot.is_some(),
            Engine::Sharded(s) => s.cores().any(|c| c.hot.is_some()),
        }
    }

    /// Packet-link offers processed so far (accepted or dropped). Unlike
    /// [`SimReport::events`] this count is identical across datapaths and
    /// schedulers, so benchmarks report datapath throughput in
    /// packet-hops/sec.
    pub fn pkt_hops(&self) -> u64 {
        match &self.engine {
            Engine::Idle => 0,
            Engine::Serial(s) => s.core.pkt_hops,
            Engine::Sharded(s) => s.cores().map(|c| c.pkt_hops).sum(),
        }
    }

    /// Admits a flow of `bytes` from server `src` to server `dst`,
    /// starting at `start_ns`. Returns its [`FlowId`].
    pub fn add_flow(
        &mut self,
        src: u32,
        dst: u32,
        bytes: u64,
        start_ns: Ns,
    ) -> Result<FlowId, SimError> {
        let fs = &*self.fs;
        match &mut self.engine {
            Engine::Idle => Arc::make_mut(&mut self.plant).add_flow(fs, src, dst, bytes, start_ns),
            Engine::Serial(s) => {
                let id =
                    Arc::make_mut(&mut s.core.plant).add_flow(fs, src, dst, bytes, start_ns)?;
                s.admit(id);
                Ok(id)
            }
            Engine::Sharded(s) => {
                // Every shard shares the plant: release their handles so it
                // extends in place.
                s.cores_mut().for_each(|c| c.plant = spare_plant());
                let added = Arc::make_mut(&mut self.plant).add_flow(fs, src, dst, bytes, start_ns);
                s.cores_mut().for_each(|c| c.plant = self.plant.clone());
                let id = added?;
                s.admit(id);
                Ok(id)
            }
        }
    }

    /// Runs until no event is left (or `cfg.max_time_ns`) and reports.
    /// Packets still in flight when the last flow completes are carried
    /// to the end.
    pub fn run(&mut self) -> SimReport {
        self.advance(self.cfg.max_time_ns);
        let r = self.report();
        self.end_ns = r.end_ns;
        r
    }

    /// Processes every event with `t <= deadline` (and within
    /// `cfg.max_time_ns`), then advances `now` to the (clamped) deadline.
    /// Events beyond the deadline stay queued; a later `run_until` or
    /// [`run`](Self::run) picks them up. Returns `false` once the time
    /// horizon has been reached (nothing further can execute).
    ///
    /// This is the packet half of the hybrid co-simulation: its packet
    /// stage runs one bounded window per fluid event (elephant arrival or
    /// departure, failure control point), each followed by the residuals
    /// of that event's re-solve.
    pub fn run_until(&mut self, deadline: Ns) -> bool {
        let deadline = deadline.min(self.cfg.max_time_ns);
        self.advance(deadline);
        // Time advances to the window edge even when no event landed
        // exactly on it, so the caller's rate integration sees contiguous
        // windows and nothing can later execute "in the past".
        match &mut self.engine {
            Engine::Idle => unreachable!("advanced above"),
            Engine::Serial(s) => s.core.now = s.core.now.max(deadline),
            Engine::Sharded(s) => s.cores_mut().for_each(|c| c.now = c.now.max(deadline)),
        }
        deadline < self.cfg.max_time_ns
    }

    /// Processes every event and failure-schedule action at or before
    /// `deadline`, on the shards the first advance creates.
    fn advance(&mut self, deadline: Ns) {
        if let Engine::Idle = self.engine {
            self.start();
        }
        let agenda = self.agenda.as_deref_mut();
        match &mut self.engine {
            Engine::Idle => unreachable!("started above"),
            Engine::Serial(s) => s.advance(agenda, deadline),
            Engine::Sharded(s) => s.advance(agenda, deadline),
        }
    }

    /// Creates the shards (at the first advance, or when pinned to one):
    /// their cores, and every admitted flow's start in the shard that owns
    /// its sender.
    fn start(&mut self) {
        let k = self.planned_shards();
        let faults = self.agenda.is_some();
        self.engine = if k == 1 {
            let sink = SerialSink::new(&self.cfg);
            let plant = std::mem::replace(&mut self.plant, spare_plant());
            let links = plant.num_links();
            let mut core = Core::new(
                self.cfg,
                self.fs.clone(),
                plant,
                self.hot.clone(),
                sink,
                links,
            );
            if let Some(agenda) = &self.agenda {
                core.enable_faults();
                core.ctrl_pending = agenda.pending();
            }
            core.rate_scale = self.residuals.take();
            let flows = core.plant.specs.len();
            let mut serial = Serial {
                core,
                events: 0,
                #[cfg(test)]
                max_t: 0,
            };
            serial.core.sink.reserve_starts(flows);
            for f in 0..flows {
                serial.admit(f as FlowId);
            }
            Engine::Serial(Box::new(serial))
        } else {
            let partition = partition_domains(&self.topo, k);
            Engine::Sharded(Box::new(Sharded::new(
                partition,
                self.cfg,
                &self.fs,
                &self.plant,
                &self.hot,
                faults,
                &self.residuals.take(),
                par::host_threads() as u32,
            )))
        };
    }

    /// Builds the report from current state; debug builds check its
    /// conservation laws.
    fn report(&self) -> SimReport {
        let (tally, events, flows): (Tally, u64, Vec<FlowRecord>) = match &self.engine {
            Engine::Idle => unreachable!("reports follow an advance"),
            Engine::Serial(s) => {
                let c = &s.core;
                let record = |f: FlowId| c.plant.specs[f as usize].record(f, c.outcome(f));
                (
                    c.tally(),
                    s.events,
                    (0..c.plant.specs.len() as FlowId).map(record).collect(),
                )
            }
            Engine::Sharded(s) => {
                let tally = s
                    .cores()
                    .map(Core::tally)
                    .fold(Tally::default(), Tally::merge);
                (tally, s.events(), s.records())
            }
        };
        let report = SimReport {
            end_ns: run_end(&flows, self.cfg.max_time_ns, tally.last_live),
            flows,
            dropped_packets: tally.queue_drops + tally.no_route_drops,
            delivered_bytes: tally.delivered_bytes,
            events,
            used_fib_cache: self.uses_fib_cache(),
            congestion_drops: tally.congestion_drops,
            pause_frames: tally.pause_frames,
            resume_frames: tally.resume_frames,
            links_ever_paused: tally.links_ever_paused,
            max_ingress_backlog: tally.max_ingress_backlog,
        };
        if cfg!(debug_assertions) {
            tally.check(&report);
        }
        report
    }

    /// Per-switch-link transmitted bytes (index = directed link id
    /// `2 * edge + dir`); for utilization accounting.
    pub fn switch_link_tx_bytes(&self) -> Vec<u64> {
        let n = self.plant().base_up() as usize;
        match &self.engine {
            Engine::Idle => vec![0; n],
            Engine::Serial(s) => s.core.queues[..n].iter().map(|q| q.tx_bytes).collect(),
            Engine::Sharded(s) => s.switch_link_tx_bytes(n),
        }
    }

    /// Mean utilization of switch-switch links over the finished run
    /// (up to its [`SimReport::end_ns`]).
    pub fn mean_switch_link_utilization(&self) -> f64 {
        let (end, links) = (self.end_ns, self.plant().base_up());
        if end == 0 || links == 0 {
            return 0.0;
        }
        let cap = self.cfg.bytes_per_ns() * end as f64;
        let sum: u64 = self.switch_link_tx_bytes().iter().sum();
        sum as f64 / (cap * links as f64)
    }

    // ---- hybrid co-simulation hooks ----

    /// Total directed links (switch links, then uplinks, then downlinks —
    /// the same index space as `spineless_fluid::LinkSpace`).
    pub fn num_dir_links(&self) -> usize {
        self.plant().num_links()
    }

    /// Installs per-link residual capacity fractions: link `l` serializes
    /// packets at `residual[l] × link rate`. The hybrid driver pushes the
    /// capacity left over after the fluid elephants' max-min allocation
    /// here after every re-solve. Values are clamped to `[1e-6, 1.0]` —
    /// a link fully consumed by elephants still trickles packets rather
    /// than stalling the DES.
    ///
    /// Affects packets whose serialization *starts* after the call;
    /// packets already on the wire keep their scheduled times (the same
    /// convention as a real PHY rate change).
    ///
    /// Returns [`SimError::ResidualLength`], and changes nothing, unless
    /// `residual.len() == self.num_dir_links()`.
    pub fn set_link_residuals(&mut self, residual: &[f64]) -> Result<(), SimError> {
        let want = self.num_dir_links();
        if residual.len() != want {
            return Err(SimError::ResidualLength {
                got: residual.len(),
                want,
            });
        }
        match &mut self.engine {
            Engine::Idle => install_residuals(&mut self.residuals, residual),
            Engine::Serial(s) => install_residuals(&mut s.core.rate_scale, residual),
            Engine::Sharded(s) => {
                // Every shard shares one copy: gather the handles so the
                // last one rewrites it in place.
                let mut shared = None;
                for c in s.cores_mut() {
                    shared = c.rate_scale.take();
                }
                install_residuals(&mut shared, residual);
                s.cores_mut().for_each(|c| c.rate_scale = shared.clone());
            }
        }
        Ok(())
    }

    /// The fabric and workload facts the run was built over.
    pub(crate) fn plant(&self) -> &Plant {
        match &self.engine {
            Engine::Serial(s) => &s.core.plant,
            _ => &self.plant,
        }
    }

    /// Time of the last event that did any work (see [`run_end`]).
    pub(crate) fn last_live(&self) -> Ns {
        match &self.engine {
            Engine::Idle => 0,
            Engine::Serial(s) => s.core.last_live,
            Engine::Sharded(s) => s.cores().map(|c| c.last_live).max().unwrap_or(0),
        }
    }

    /// Each shard's [`Core::state_vecs`].
    #[cfg(test)]
    pub(crate) fn shard_state(&self) -> Vec<Vec<crate::datapath::StateVec>> {
        match &self.engine {
            Engine::Idle => Vec::new(),
            Engine::Serial(s) => vec![s.core.state_vecs()],
            Engine::Sharded(s) => s.cores().map(Core::state_vecs).collect(),
        }
    }

    /// Each shard's `(time, flow)` of every flow start, in processing
    /// order.
    #[cfg(test)]
    pub(crate) fn start_log(&self) -> Vec<Vec<(Ns, FlowId)>> {
        match &self.engine {
            Engine::Idle => Vec::new(),
            Engine::Serial(s) => vec![s.core.start_log.clone()],
            Engine::Sharded(s) => s.cores().map(|c| c.start_log.clone()).collect(),
        }
    }

    /// Work that reached retired flow state, summed over the shards:
    /// `[data, ACKs, RTOs]` (see `Core::retired_hits`).
    #[cfg(test)]
    pub(crate) fn retired_hits(&self) -> [u64; 3] {
        let hits = |c: [u64; 3], d: [u64; 3]| std::array::from_fn(|i| c[i] + d[i]);
        match &self.engine {
            Engine::Idle => [0; 3],
            Engine::Serial(s) => s.core.retired_hits,
            Engine::Sharded(s) => s.cores().map(|c| c.retired_hits).fold([0; 3], hits),
        }
    }

    /// [`Core::state_bytes`] summed over the shards.
    #[cfg(test)]
    pub(crate) fn state_bytes(&self) -> usize {
        match &self.engine {
            Engine::Idle => 0,
            Engine::Serial(s) => s.core.state_bytes(),
            Engine::Sharded(s) => s.cores().map(Core::state_bytes).sum(),
        }
    }

    /// Time of the last event any shard processed: the extent of the
    /// event stream, which the single-domain golden test pins.
    #[cfg(test)]
    pub(crate) fn drain_ns(&self) -> Ns {
        match &self.engine {
            Engine::Idle => 0,
            Engine::Serial(s) => s.max_t,
            Engine::Sharded(s) => s.drain_ns(),
        }
    }
}

/// An empty plant, to stand in for a shared one while that is extended.
fn spare_plant() -> Arc<Plant> {
    static SPARE: OnceLock<Arc<Plant>> = OnceLock::new();
    SPARE.get_or_init(Default::default).clone()
}

/// Writes `residual`, clamped to `[1e-6, 1.0]`, into the per-link rate
/// fractions — in place when nobody else holds them.
fn install_residuals(scale: &mut Option<Arc<[f64]>>, residual: &[f64]) {
    let clamp = |r: &f64| r.clamp(1e-6, 1.0);
    match scale.as_mut().and_then(Arc::get_mut) {
        Some(s) => s.iter_mut().zip(residual).for_each(|(s, r)| *s = clamp(r)),
        None => *scale = Some(residual.iter().map(clamp).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::{assert_engines_agree, Outcome};
    use crate::types::{PfcConfig, Scheduler, Transport};
    use spineless_graph::NodeId;
    use spineless_routing::RoutingScheme;
    use spineless_topo::dring::DRing;
    use spineless_topo::leafspine::LeafSpine;

    fn small_ls() -> Topology {
        LeafSpine::new(4, 2).build() // 6 leaves, 2 spines, 24 servers
    }

    fn sim(topo: &Topology, scheme: RoutingScheme, seed: u64) -> Simulation {
        let fs = ForwardingState::build(&topo.graph, scheme);
        Simulation::new(topo, fs, SimConfig::default(), seed)
    }

    #[test]
    fn residuals_of_the_wrong_length_are_rejected() {
        let t = small_ls();
        let plain = {
            let mut s = sim(&t, RoutingScheme::Ecmp, 1);
            s.add_flow(0, 20, 200_000, 0).unwrap();
            s.run()
        };
        let mut s = sim(&t, RoutingScheme::Ecmp, 1);
        let n = s.num_dir_links();
        for got in [n - 1, n + 1, 0] {
            let want = Err(SimError::ResidualLength { got, want: n });
            assert_eq!(s.set_link_residuals(&vec![0.25; got]), want);
        }
        s.add_flow(0, 20, 200_000, 0).unwrap();
        assert_eq!(s.run(), plain, "a rejected residual vector slowed the run");
        assert_eq!(
            s.set_link_residuals(&vec![0.25; n + 1]),
            Err(SimError::ResidualLength {
                got: n + 1,
                want: n
            })
        );
        assert_eq!(s.set_link_residuals(&vec![1.0; n]), Ok(()));
    }

    #[test]
    fn same_rack_flow_completes_fast() {
        let t = small_ls();
        let mut s = sim(&t, RoutingScheme::Ecmp, 1);
        // Servers 0 and 1 share leaf 0.
        let f = s.add_flow(0, 1, 15_000, 0).unwrap();
        let r = s.run();
        let fct = r.flows[f as usize].fct_ns.unwrap();
        // 10 segments over two server hops; must finish well under 100 us.
        assert!(fct < 100_000, "fct {fct}");
        assert_eq!(r.flows[f as usize].retransmits, 0);
        assert_eq!(r.dropped_packets, 0);
    }

    #[test]
    fn cross_rack_flow_completes() {
        let t = small_ls();
        let mut s = sim(&t, RoutingScheme::Ecmp, 1);
        // Server 0 (leaf 0) to server 23 (leaf 5).
        let f = s.add_flow(0, 23, 100_000, 0).unwrap();
        let r = s.run();
        assert!(r.flows[f as usize].fct_ns.is_some());
        // 100 KB at 10 Gbps is 80 us serialization alone.
        assert!(r.flows[f as usize].fct_ns.unwrap() > 80_000);
        assert_eq!(r.unfinished(), 0);
    }

    #[test]
    fn fct_close_to_ideal_for_unloaded_path() {
        // A single long flow on an idle network should achieve near line
        // rate: FCT ≈ bytes / rate + small slow-start and RTT overhead.
        let t = small_ls();
        let mut s = sim(&t, RoutingScheme::Ecmp, 2);
        let bytes = 1_000_000u64;
        let f = s.add_flow(0, 23, bytes, 0).unwrap();
        let r = s.run();
        let fct = r.flows[f as usize].fct_ns.unwrap() as f64;
        let ideal = bytes as f64 / 1.25; // ns at 10G
        assert!(fct > ideal, "can't beat line rate");
        assert!(fct < 2.0 * ideal, "fct {fct} vs ideal {ideal}");
    }

    #[test]
    fn deterministic_given_seed() {
        let t = small_ls();
        let run = |seed| {
            let mut s = sim(&t, RoutingScheme::Ecmp, seed);
            for i in 0..8 {
                s.add_flow(i, 23 - i, 50_000, (i as u64) * 1000).unwrap();
            }
            let r = s.run();
            (r.fcts(), r.events)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(
            run(7).0,
            run(8).0,
            "different seeds give different ECMP picks"
        );
    }

    #[test]
    fn incast_causes_drops_but_all_flows_finish() {
        let t = small_ls();
        let mut s = sim(&t, RoutingScheme::Ecmp, 3);
        // 12 senders from distinct remote racks into server 0: classic
        // incast on the server downlink.
        for i in 0..12 {
            s.add_flow(8 + i, 0, 150_000, 0).unwrap();
        }
        let r = s.run();
        assert_eq!(r.unfinished(), 0);
        assert!(r.dropped_packets > 0, "incast should overflow the downlink");
        let rtx: u32 = r.flows.iter().map(|f| f.retransmits).sum();
        assert!(rtx > 0);
    }

    #[test]
    fn su2_routing_works_on_dring() {
        let t = DRing::uniform(6, 2, 24).build();
        let mut s = sim(&t, RoutingScheme::ShortestUnion(2), 4);
        let n = t.num_servers();
        for i in 0..16 {
            let src = i % n;
            let dst = (i * 7 + 3) % n;
            if src != dst {
                s.add_flow(src, dst, 30_000, (i as u64) * 500).unwrap();
            }
        }
        let r = s.run();
        assert_eq!(r.unfinished(), 0);
        assert!(r.delivered_bytes >= 16 * 30_000 * 9 / 10);
    }

    #[test]
    fn rejects_bad_flows() {
        let t = small_ls();
        let mut s = sim(&t, RoutingScheme::Ecmp, 5);
        assert_eq!(s.add_flow(0, 999, 100, 0), Err(SimError::BadServer(999)));
        assert_eq!(s.add_flow(999, 0, 100, 0), Err(SimError::BadServer(999)));
        assert_eq!(s.add_flow(0, 1, 0, 0), Err(SimError::EmptyFlow));
    }

    #[test]
    fn max_time_truncates() {
        let t = small_ls();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let cfg = SimConfig {
            max_time_ns: 10_000,
            ..Default::default()
        };
        let mut s = Simulation::new(&t, fs, cfg, 6);
        s.add_flow(0, 23, 100_000_000, 0).unwrap(); // can't finish in 10 us
        let r = s.run();
        assert_eq!(r.unfinished(), 1);
        assert!(r.end_ns <= 10_000);
    }

    #[test]
    fn ecmp_spreads_flows_over_spines() {
        let t = small_ls();
        let mut s = sim(&t, RoutingScheme::Ecmp, 9);
        // Many flows leaf 0 -> leaf 5; with 2 spines both should carry some.
        for i in 0..4 {
            for j in 0..4 {
                s.add_flow(i, 20 + j, 50_000, 0).unwrap();
            }
        }
        s.run();
        let tx = s.switch_link_tx_bytes();
        // Spine switches are nodes 6 and 7; count bytes on links touching
        // each spine.
        let mut per_spine = [0u64; 2];
        for (e, &(a, b)) in s.plant().edge_ends.iter().enumerate() {
            for spine in [6u32, 7u32] {
                if a == spine || b == spine {
                    per_spine[(spine - 6) as usize] += tx[2 * e] + tx[2 * e + 1];
                }
            }
        }
        assert!(per_spine[0] > 0 && per_spine[1] > 0, "{per_spine:?}");
    }

    #[test]
    fn utilization_accounting_is_sane() {
        let t = small_ls();
        let mut s = sim(&t, RoutingScheme::Ecmp, 10);
        s.add_flow(0, 23, 500_000, 0).unwrap();
        s.run();
        let u = s.mean_switch_link_utilization();
        assert!(u > 0.0 && u < 1.0, "{u}");
    }

    #[test]
    fn flowlet_switching_spreads_one_flow_over_many_paths() {
        // With per-flow ECMP a single flow between leaves pins one spine;
        // with an (artificially tiny) flowlet gap every send burst re-rolls
        // the hash and both spines carry bytes.
        let t = small_ls();
        let run = |gap: Option<u64>| {
            let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
            let cfg = SimConfig {
                flowlet_gap_ns: gap,
                ..Default::default()
            };
            let mut s = Simulation::new(&t, fs, cfg, 31);
            s.add_flow(0, 23, 2_000_000, 0).unwrap();
            let r = s.run();
            assert_eq!(r.unfinished(), 0);
            let tx = s.switch_link_tx_bytes();
            let mut per_spine = [0u64; 2];
            for (e, &(a, b)) in s.plant().edge_ends.iter().enumerate() {
                for spine in [6u32, 7u32] {
                    if a == spine || b == spine {
                        per_spine[(spine - 6) as usize] += tx[2 * e] + tx[2 * e + 1];
                    }
                }
            }
            per_spine
        };
        let pinned = run(None);
        // One spine carries (essentially) everything: the other sees only
        // the ACK stream at most.
        assert!(
            pinned[0].min(pinned[1]) * 10 < pinned[0].max(pinned[1]),
            "{pinned:?}"
        );
        let sprayed = run(Some(0));
        assert!(
            sprayed[0] > 0
                && sprayed[1] > 0
                && sprayed[0].min(sprayed[1]) * 10 >= sprayed[0].max(sprayed[1]) / 10,
            "{sprayed:?}"
        );
    }

    #[test]
    fn dctcp_tames_incast_drops() {
        // The same incast under DCTCP vs NewReno: ECN backpressure should
        // slash drops and retransmissions.
        let t = small_ls();
        let run = |transport| {
            let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
            let cfg = SimConfig {
                transport,
                ..Default::default()
            };
            let mut s = Simulation::new(&t, fs, cfg, 3);
            for i in 0..12 {
                s.add_flow(8 + i, 0, 150_000, 0).unwrap();
            }
            let r = s.run();
            assert_eq!(r.unfinished(), 0);
            let rtx: u32 = r.flows.iter().map(|f| f.retransmits).sum();
            (r.dropped_packets, rtx)
        };
        let (drops_reno, rtx_reno) = run(crate::types::Transport::NewReno);
        let (drops_dctcp, rtx_dctcp) = run(crate::types::Transport::Dctcp);
        assert!(
            drops_dctcp * 2 < drops_reno,
            "DCTCP {drops_dctcp} drops vs NewReno {drops_reno}"
        );
        assert!(rtx_dctcp <= rtx_reno, "{rtx_dctcp} vs {rtx_reno}");
    }

    #[test]
    fn dual_plane_forwarding_runs_through_the_engine() {
        // The adaptive plane (§7) must drive the same engine: flows on the
        // ECMP plane and on the SU plane all complete.
        use spineless_routing::DualPlane;
        let t = DRing::uniform(6, 2, 24).build();
        let dual = DualPlane::by_path_count(&t.graph, 2, 4);
        let mut sim = Simulation::new(&t, dual, SimConfig::default(), 21);
        let n = t.num_servers();
        for i in 0..24 {
            let src = (i * 5) % n;
            let dst = (i * 11 + 7) % n;
            if src != dst {
                sim.add_flow(src, dst, 40_000, (i as u64) * 1_000).unwrap();
            }
        }
        let r = sim.run();
        assert_eq!(r.unfinished(), 0);
        assert!(r.delivered_bytes > 0);
    }

    /// The engine tests' mixed workload: 32 flows whose short ones stress
    /// tie-breaking and whose long ones stress queue buildup and RTO
    /// scheduling.
    fn mixed_flows(topo: &Topology) -> Vec<(u32, u32, u64, Ns)> {
        let n = topo.num_servers();
        (0..32u32)
            .map(|i| {
                let bytes = if i % 4 == 0 { 600_000 } else { 20_000 };
                ((i * 5) % n, (i * 13 + 3) % n, bytes, i as u64 * 700)
            })
            .filter(|&(src, dst, _, _)| src != dst)
            .collect()
    }

    /// [`assert_engines_agree`] on [`mixed_flows`]: both schedulers, both
    /// datapaths and several shard counts give one outcome. Because
    /// `(time, content rank)` is a total order, any divergence is an
    /// ordering bug.
    fn assert_engines_agree_on_mixed(
        topo: &Topology,
        scheme: RoutingScheme,
        cfg: SimConfig,
        seed: u64,
        schedule: Option<&FailureSchedule>,
    ) -> Outcome {
        assert_engines_agree(topo, scheme, cfg, seed, &mixed_flows(topo), schedule)
    }

    #[test]
    fn delay_lanes_match_heap_on_leafspine_ecmp() {
        let t = small_ls();
        assert_engines_agree_on_mixed(&t, RoutingScheme::Ecmp, SimConfig::default(), 41, None);
        assert_engines_agree_on_mixed(&t, RoutingScheme::Ecmp, SimConfig::default(), 42, None);
        let pfc = SimConfig {
            transport: Transport::GoBackN,
            pfc: Some(pfc_small()),
            ..SimConfig::default()
        };
        assert_engines_agree_on_mixed(&t, RoutingScheme::Ecmp, pfc, 42, None);
    }

    #[test]
    fn delay_lanes_match_heap_on_dring_su2() {
        // The reference datapath the harness also runs pushes RTOs and
        // terminal `TxDone`s through the queue too.
        let t = DRing::uniform(6, 2, 24).build();
        assert_engines_agree_on_mixed(
            &t,
            RoutingScheme::ShortestUnion(2),
            SimConfig::default(),
            43,
            None,
        );
    }

    #[test]
    fn fast_datapath_matches_reference_on_leafspine_ecmp() {
        let t = small_ls();
        assert_engines_agree_on_mixed(&t, RoutingScheme::Ecmp, SimConfig::default(), 51, None);
        assert_engines_agree_on_mixed(&t, RoutingScheme::Ecmp, SimConfig::default(), 52, None);
    }

    #[test]
    fn fast_datapath_matches_reference_on_dring_su2() {
        let t = DRing::uniform(6, 2, 24).build();
        assert_engines_agree_on_mixed(
            &t,
            RoutingScheme::ShortestUnion(2),
            SimConfig::default(),
            53,
            None,
        );
    }

    #[test]
    fn fast_datapath_matches_reference_under_dctcp_and_flowlets() {
        // DCTCP stresses the ECN-marking path through `offer`; a tiny
        // flowlet gap stresses the pre-hashed key (hash_base must re-fold
        // the flowlet id on every burst).
        let t = small_ls();
        let cfg = SimConfig {
            transport: crate::types::Transport::Dctcp,
            flowlet_gap_ns: Some(10_000),
            ..Default::default()
        };
        assert_engines_agree_on_mixed(&t, RoutingScheme::Ecmp, cfg, 54, None);
    }

    #[test]
    fn fast_datapath_matches_reference_under_truncation() {
        // Early stop exercises the staged-event/wheel interplay at the
        // max_time boundary.
        let t = small_ls();
        let cfg = SimConfig {
            max_time_ns: 300_000,
            ..Default::default()
        };
        assert_engines_agree_on_mixed(&t, RoutingScheme::Ecmp, cfg, 55, None);
    }

    #[test]
    fn fast_datapath_matches_reference_across_rto_quiescence() {
        // Regression: when a wheel RTO fires ahead of the staged queue
        // event, the retransmitted packet's wire events can precede it —
        // `push` must return the staged event to the queue or it is
        // processed out of order (time regresses and the datapaths
        // diverge). The RTOs here also fire ahead of a far-future flow
        // start, which waits in the start list and must yield to the
        // wheel alike.
        let t = small_ls();
        let cfg = SimConfig {
            queue_bytes: 3_000,
            ..Default::default()
        };
        // Incast into server 0 over two-packet queues: whole windows drop,
        // so recovery leans on RTOs firing into a drained network.
        let mut flows: Vec<(u32, u32, u64, Ns)> = (0..12).map(|i| (8 + i, 0, 60_000, 0)).collect();
        // Starts long after the incast stalls: its start is the next one
        // during every RTO wait before 20 ms.
        flows.push((1, 2, 20_000, 20_000_000));
        let (r, _, _) = assert_engines_agree(&t, RoutingScheme::Ecmp, cfg, 56, &flows, None);
        let timeouts: u32 = r.flows.iter().map(|f| f.timeouts).sum();
        assert!(timeouts > 0, "scenario must exercise RTO recovery");
    }

    #[test]
    fn flow_state_grows_with_live_flows_not_admitted_ones() {
        // `lanes` server pairs each carry a chain of 20 KB flows, each
        // starting long after the one before it completed, so at most
        // `lanes` flows run at once however many are admitted. The pools
        // hold running flows only: ten times the flows adds just the
        // per-flow tables (slot entries, outcome, pending start, RTO wheel
        // key and, sharded, the peer slots) — not the 200-odd bytes of TCP
        // state a flow would hold from admission to the end of the run.
        let t = small_ls();
        let run = |lanes: u32, chain: u64, k: u32| {
            let flows: Vec<(u32, u32, u64, Ns)> = (0..chain)
                .flat_map(|j| (0..lanes).map(move |m| (m, 23 - m, 20_000, j * 200_000)))
                .collect();
            let cfg = SimConfig::default();
            let mut s = crate::equiv::sharded(&t, RoutingScheme::Ecmp, cfg, 81, k, &flows, None);
            assert_eq!(s.run().unfinished(), 0);
            let entries = |name: &str| -> usize {
                let state = s.shard_state();
                state
                    .iter()
                    .flatten()
                    .filter(|v| v.0 == name)
                    .map(|v| v.1)
                    .sum()
            };
            let pools = entries("senders").max(entries("receivers"));
            (s.state_bytes(), pools)
        };
        for k in [1, 2] {
            for lanes in [2, 6] {
                let (short, short_pools) = run(lanes, 4, k);
                let (long, long_pools) = run(lanes, 40, k);
                assert!(
                    short_pools.max(long_pools) <= lanes as usize,
                    "k={k}: {short_pools} and {long_pools} pool entries for {lanes} live flows"
                );
                let per_flow = (long - short) / (36 * lanes as usize);
                assert!(
                    per_flow <= 72,
                    "k={k}, {lanes} lanes: {per_flow} B per admitted flow"
                );
            }
        }
    }

    #[test]
    fn reused_pool_entries_ignore_the_flow_before() {
        // Server 23's downlink runs at 2% of its rate from 10 to 160 us
        // under a 1 ns RTO floor, so flow 0's timers fire while its data
        // only waits in that queue, and the copies they send arrive after
        // their originals. Flow 1, on the same pair, starts 1 ns after
        // flow 0 completes and takes over its sender and receiver pool
        // entries while flow 0's duplicate data, the ACKs they draw and —
        // on the reference datapath — its stale RTOs still arrive. Those
        // must act on flow 0's retired state, never on flow 1's: the report
        // is the one recorded before flow state was pooled.
        let t = small_ls();
        let start = 208_129;
        for (datapath, events) in [(Datapath::Fast, 651), (Datapath::Reference, 940)] {
            for k in [1, 2] {
                let cfg = SimConfig {
                    min_rto_ns: 1,
                    datapath,
                    ..SimConfig::default()
                };
                let flows = [(0, 23, 30_000, 0), (0, 23, 30_000, start)];
                let mut s = crate::equiv::sharded(&t, RoutingScheme::Ecmp, cfg, 3, k, &flows, None);
                let n = s.num_dir_links();
                let mut residual = vec![1.0; n];
                s.run_until(10_000);
                residual[n - 1] = 0.02;
                s.set_link_residuals(&residual).unwrap();
                s.run_until(160_000);
                s.set_link_residuals(&vec![1.0; n]).unwrap();
                s.run_until(start + 10_000);
                let early = s.retired_hits();
                let r = s.run();
                let late: Vec<u64> = (0..3).map(|i| s.retired_hits()[i] - early[i]).collect();
                let case = format!("{datapath:?}, k={k}");
                assert!(late[0] > 0 && late[1] > 0, "{case}: {late:?}");
                assert_eq!(
                    late[2] > 0,
                    datapath == Datapath::Reference,
                    "{case}: {late:?}"
                );
                let state = s.shard_state();
                for pool in ["senders", "receivers"] {
                    let entries: usize = state
                        .iter()
                        .flatten()
                        .filter(|v| v.0 == pool)
                        .map(|v| v.1)
                        .sum();
                    assert_eq!(entries, 1, "{case}: {pool}");
                }
                let got: Vec<_> = r
                    .flows
                    .iter()
                    .map(|f| (f.fct_ns, f.retransmits, f.timeouts))
                    .collect();
                assert_eq!(
                    got,
                    [(Some(208_128), 16, 2), (Some(43_199), 0, 0)],
                    "{case}"
                );
                assert_eq!(
                    (
                        r.delivered_bytes,
                        r.dropped_packets,
                        r.end_ns,
                        r.events,
                        s.pkt_hops()
                    ),
                    (84_000, 0, 251_328, events, 448),
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn a_retired_receiver_acks_a_resend_with_the_whole_flow() {
        // 2 000 B ACKs cannot wait behind one another in a 3 000 B queue,
        // so flow 0 loses its last ACKs and its timer resends data that
        // its receiver, already retired, has. Only the retired receiver's
        // answer, the ACK of the whole flow, completes the sender. Flow 1
        // then reuses both pool entries. The report is the one recorded
        // before flow state was pooled.
        let t = small_ls();
        for (datapath, events) in [(Datapath::Fast, 1_630), (Datapath::Reference, 2_224)] {
            for k in [1, 2] {
                let cfg = SimConfig {
                    min_rto_ns: 1,
                    ack_bytes: 2_000,
                    queue_bytes: 3_000,
                    max_time_ns: 5_000_000,
                    datapath,
                    ..SimConfig::default()
                };
                let flows = [(0, 23, 100_000, 0), (0, 23, 100_000, 384_870)];
                let mut s = crate::equiv::sharded(&t, RoutingScheme::Ecmp, cfg, 3, k, &flows, None);
                let r = s.run();
                let case = format!("{datapath:?}, k={k}");
                assert!(
                    s.retired_hits()[0] > 0,
                    "{case}: no resend reached a retired receiver"
                );
                let got: Vec<_> = r
                    .flows
                    .iter()
                    .map(|f| (f.fct_ns, f.retransmits, f.timeouts))
                    .collect();
                assert_eq!(got, [(Some(384_869), 13, 2); 2], "{case}");
                assert_eq!(
                    (
                        r.delivered_bytes,
                        r.dropped_packets,
                        r.end_ns,
                        r.events,
                        s.pkt_hops()
                    ),
                    (202_000, 32, 769_739, events, 1_088),
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn flows_start_in_start_time_then_id_order() {
        // Flows admitted out of start order, ties included, and then — after
        // a `run_until` — one whose start time has already passed: every
        // flow starts at its own start time, in `(start_ns, flow id)` order,
        // on both schedulers and at one and two shards, and all four runs
        // agree.
        let t = small_ls();
        let early: [(u32, u32, u64, Ns); 5] = [
            (0, 23, 30_000, 50_000),
            (1, 22, 30_000, 0),
            (2, 21, 30_000, 50_000),
            (3, 20, 30_000, 20_000),
            (8, 4, 30_000, 0),
        ];
        let late = [(9, 5, 30_000, 30_000), (10, 6, 30_000, 90_000)];
        let mut want: Vec<(Ns, FlowId)> = early
            .iter()
            .chain(&late)
            .enumerate()
            .map(|(f, fl)| (fl.3, f as FlowId))
            .collect();
        want.sort();
        let mut runs = Vec::new();
        for scheduler in [Scheduler::Auto, Scheduler::ReferenceHeap] {
            for k in [1, 2] {
                let cfg = SimConfig {
                    scheduler,
                    ..SimConfig::default()
                };
                let mut s =
                    crate::equiv::sharded(&t, RoutingScheme::Ecmp, cfg, 82, k, &early, None);
                s.run_until(40_000);
                for &(src, dst, b, at) in &late {
                    s.add_flow(src, dst, b, at).unwrap();
                }
                let r = s.run();
                assert_eq!(r.unfinished(), 0);
                let logs = s.start_log();
                assert_eq!(logs.len(), k as usize);
                for log in &logs {
                    assert!(log.is_sorted(), "{scheduler:?}, k={k}: {log:?}");
                }
                let mut all: Vec<(Ns, FlowId)> = logs.concat();
                all.sort();
                assert_eq!(all, want, "{scheduler:?}, k={k}");
                runs.push(r);
            }
        }
        assert!(runs.windows(2).all(|w| w[0] == w[1]), "the runs disagree");
    }

    #[test]
    fn dual_plane_runs_fast_datapath_without_cache() {
        // DualPlane exposes no FibCache: the fast datapath must fall back
        // to per-hop walks (and still elide TxDones / use the wheel).
        use spineless_routing::DualPlane;
        let t = DRing::uniform(6, 2, 24).build();
        let dual = DualPlane::by_path_count(&t.graph, 2, 4);
        let sim = Simulation::new(&t, dual, SimConfig::default(), 21);
        assert!(!sim.uses_fib_cache());
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let sim = Simulation::new(&t, fs, SimConfig::default(), 21);
        assert!(sim.uses_fib_cache());
    }

    #[test]
    fn prewarmed_fib_cache_matches_inline_build() {
        // `with_fib_cache` (benchmarks hoist the build) must not change
        // outcomes relative to letting the constructor build it.
        let t = small_ls();
        let edges: Vec<(NodeId, NodeId)> = t.graph.edges().to_vec();
        let run = |cache: Option<std::sync::Arc<FibCache>>| {
            let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
            let mut s = Simulation::with_fib_cache(&t, fs, SimConfig::default(), 77, cache);
            assert!(s.uses_fib_cache());
            for i in 0..8 {
                s.add_flow(i, 23 - i, 50_000, (i as u64) * 1000).unwrap();
            }
            let r = s.run();
            (r.fcts(), r.events, r.dropped_packets)
        };
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let cache = std::sync::Arc::new(fs.fib_cache(&edges).unwrap());
        assert_eq!(run(Some(cache)), run(None));
    }

    #[test]
    fn flow_to_self_rack_without_network_links_is_fine() {
        // Same-rack traffic must not touch switch links at all.
        let t = small_ls();
        let mut s = sim(&t, RoutingScheme::Ecmp, 11);
        s.add_flow(0, 2, 50_000, 0).unwrap();
        let r = s.run();
        assert_eq!(r.unfinished(), 0);
        assert_eq!(s.switch_link_tx_bytes().iter().sum::<u64>(), 0);
    }

    // ---- PFC lossless switching + go-back-N ----

    /// PFC config with the engine-test thresholds (low enough that the
    /// small incast workloads actually cross them).
    fn pfc_small() -> PfcConfig {
        PfcConfig {
            xoff_bytes: 20_000,
            xon_bytes: 8_000,
        }
    }

    #[test]
    fn pfc_incast_is_lossless_and_completes() {
        // The lossless invariant: the incast that overflows drop-tail
        // queues (`incast_causes_drops_but_all_flows_finish`) drops
        // *nothing* under PFC — backpressure pauses the upstream ports
        // instead — and go-back-N never has to retransmit.
        let t = small_ls();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let cfg = SimConfig {
            transport: Transport::GoBackN,
            pfc: Some(pfc_small()),
            ..Default::default()
        };
        let mut s = Simulation::new(&t, fs, cfg, 3);
        for i in 0..12 {
            s.add_flow(8 + i, 0, 150_000, 0).unwrap();
        }
        let r = s.run();
        assert_eq!(r.unfinished(), 0);
        assert_eq!(r.congestion_drops, 0, "PFC must not drop at full queues");
        assert_eq!(r.dropped_packets, 0);
        assert!(r.pause_frames > 0, "the incast must actually trigger XOFF");
        assert!(r.resume_frames > 0, "paused ports must come back");
        assert!(r.links_ever_paused > 0);
        assert!(r.max_ingress_backlog >= pfc_small().xoff_bytes);
        let rtx: u32 = r.flows.iter().map(|f| f.retransmits).sum();
        assert_eq!(rtx, 0, "nothing lost, nothing reordered: no GBN rollback");
        // No loss and no duplicates: delivered bytes are exactly the
        // offered bytes.
        assert_eq!(r.delivered_bytes, 12 * 150_000);
    }

    #[test]
    fn pfc_incast_pushes_ride_the_delay_lanes() {
        // Equal outputs cannot show the fast path was taken: count it. In
        // a synchronized incast every push lands at a fixed offset from
        // now (serialization, plus link delay, pause-frame transit), so
        // the heap fallback should see only a stray handful.
        let t = small_ls();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let cfg = SimConfig {
            transport: Transport::GoBackN,
            pfc: Some(pfc_small()),
            ..Default::default()
        };
        let mut s = Simulation::new(&t, fs, cfg, 3);
        for i in 0..12 {
            s.add_flow(8 + i, 0, 150_000, 0).unwrap();
        }
        let r = s.run();
        assert!(r.pause_frames > 0);
        let Engine::Serial(serial) = &s.engine else {
            panic!("a 12-flow incast runs serially")
        };
        let EventQueue::Lanes(q) = &serial.core.sink.queue else {
            panic!("Auto must schedule on delay lanes")
        };
        let total = q.lane_pushes + q.heap_pushes;
        assert!(total > 10_000, "{total} pushes");
        assert!(
            q.lane_pushes * 100 >= total * 99,
            "lanes took {} of {total} pushes",
            q.lane_pushes
        );
    }

    #[test]
    fn pfc_is_lossless_under_tcp_too() {
        // PFC is transport-agnostic: NewReno over the lossless fabric
        // sees no drops either (its loss machinery just never fires).
        let t = small_ls();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let cfg = SimConfig {
            pfc: Some(pfc_small()),
            ..Default::default()
        };
        let mut s = Simulation::new(&t, fs, cfg, 3);
        for i in 0..12 {
            s.add_flow(8 + i, 0, 150_000, 0).unwrap();
        }
        let r = s.run();
        assert_eq!(r.unfinished(), 0);
        assert_eq!(r.congestion_drops, 0);
        assert_eq!(r.dropped_packets, 0);
        let timeouts: u32 = r.flows.iter().map(|f| f.timeouts).sum();
        assert_eq!(timeouts, 0, "a lossless fabric starves the RTO machinery");
    }

    #[test]
    fn gbn_recovers_on_lossy_fabric_via_nacks() {
        // Go-back-N without PFC on two-packet queues: whole windows drop,
        // and recovery must come from NACK rollbacks (plus RTOs for
        // tail loss), not from fast retransmit (GBN has none).
        let t = small_ls();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let cfg = SimConfig {
            transport: Transport::GoBackN,
            queue_bytes: 3_000,
            ..Default::default()
        };
        let mut s = Simulation::new(&t, fs, cfg, 3);
        for i in 0..12 {
            s.add_flow(8 + i, 0, 60_000, 0).unwrap();
        }
        let r = s.run();
        assert_eq!(r.unfinished(), 0, "all bytes must still arrive");
        assert!(r.dropped_packets > 0, "the tiny queues must actually drop");
        let rtx: u32 = r.flows.iter().map(|f| f.retransmits).sum();
        assert!(rtx > 0, "drops must force go-back-N retransmissions");
        assert!(r.delivered_bytes >= 12 * 60_000, "duplicates ride on top");
    }

    /// Under PFC a terminal `TxDone` is not a no-op — it discharges the
    /// in-flight packet's ingress account and can trigger XON — so the
    /// fast datapath must materialize every `TxDone` (elision off) while
    /// keeping the wheel/FibCache/scratch fast paths. With elision keyed
    /// on the fast datapath alone, the fast run missed discharges,
    /// deadlocked paused ports, and diverged from Reference.
    fn assert_engines_agree_under_pfc(
        topo: &Topology,
        cfg: SimConfig,
        seed: u64,
        schedule: Option<&FailureSchedule>,
    ) {
        // Incast plus a second wave: queues pause, drain, and pause
        // again, so XOFF/XON interleave with flow starts and RTOs.
        let mut flows: Vec<(u32, u32, u64, Ns)> = (0..12).map(|i| (8 + i, 0, 150_000, 0)).collect();
        flows.extend((0..4).map(|i| (1 + i, 0, 40_000, 400_000 + i as u64 * 50_000)));
        let (r, _, _) =
            assert_engines_agree(topo, RoutingScheme::Ecmp, cfg, seed, &flows, schedule);
        assert!(
            r.pause_frames > 0,
            "scenario must actually exercise pause frames"
        );
    }

    #[test]
    fn fast_datapath_matches_reference_under_pfc_gbn() {
        let t = small_ls();
        let cfg = SimConfig {
            transport: Transport::GoBackN,
            pfc: Some(pfc_small()),
            ..Default::default()
        };
        assert_engines_agree_under_pfc(&t, cfg, 71, None);
    }

    #[test]
    fn fast_datapath_matches_reference_under_pfc_newreno() {
        let t = small_ls();
        let cfg = SimConfig {
            pfc: Some(pfc_small()),
            ..Default::default()
        };
        assert_engines_agree_under_pfc(&t, cfg, 72, None);
    }

    #[test]
    fn fast_datapath_matches_reference_under_pfc_and_failures() {
        // Pause/resume interleaved with a mid-incast link flap: dead-link
        // flushes must discharge ingress accounts identically on both
        // datapaths (phantom pause trees would diverge or deadlock).
        let t = small_ls();
        let cfg = SimConfig {
            transport: Transport::GoBackN,
            pfc: Some(pfc_small()),
            max_time_ns: 100_000_000,
            ..Default::default()
        };
        let sched = FailureSchedule::new(100_000)
            .link_down(300_000, 0)
            .link_up(2_000_000, 0);
        assert_engines_agree_under_pfc(&t, cfg, 73, Some(&sched));
    }

    #[test]
    fn pfc_pause_tree_reaches_flat_mesh_links() {
        // On a flat topology the incast's pause tree must climb past the
        // victim's ToR into mesh links — the congestion-spreading
        // phenomenon EXPERIMENTS P7 quantifies. Finite horizon: cyclic
        // buffer dependencies can legitimately deadlock PFC on a mesh.
        let t = DRing::uniform(6, 2, 24).build();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::ShortestUnion(2));
        let cfg = SimConfig {
            transport: Transport::GoBackN,
            pfc: Some(pfc_small()),
            max_time_ns: 50_000_000,
            ..Default::default()
        };
        let mut s = Simulation::new(&t, fs, cfg, 5);
        // One sender in each remote rack, all into server 0.
        for sw in 1..t.num_switches() {
            let src = t.servers_on(sw).start;
            s.add_flow(src, 0, 150_000, 0).unwrap();
        }
        let r = s.run();
        assert_eq!(r.congestion_drops, 0);
        assert!(
            r.links_ever_paused > 1,
            "pause tree should spread beyond the victim's own ingress: {}",
            r.links_ever_paused
        );
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn pfc_rejects_inverted_thresholds() {
        let t = small_ls();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let cfg = SimConfig {
            pfc: Some(PfcConfig {
                xoff_bytes: 10_000,
                xon_bytes: 10_000,
            }),
            ..Default::default()
        };
        let _ = Simulation::new(&t, fs, cfg, 1);
    }

    // ---- dynamic failures ----

    /// Builds a `Simulation<Arc<ForwardingState>>` with `schedule`
    /// installed (the `Arc` doubles as the reconvergence baseline).
    fn sim_with_failures(
        topo: &Topology,
        scheme: RoutingScheme,
        cfg: SimConfig,
        seed: u64,
        schedule: FailureSchedule,
    ) -> Simulation<Arc<ForwardingState>> {
        let fs = Arc::new(ForwardingState::build(&topo.graph, scheme));
        let mut s = Simulation::new(topo, Arc::clone(&fs), cfg, seed);
        s.set_failure_schedule(topo, fs, schedule).unwrap();
        s
    }

    // Every engine must stay bit-identical under any failure schedule:
    // drop rules are pure functions of event times and the reconvergence
    // rebuild consumes no RNG.

    #[test]
    fn fast_datapath_matches_reference_under_link_failure() {
        // Mid-run cut of one cable, reconverging after 100 us; the run
        // must see packets actually blackholed (drops > 0 is asserted by
        // the schedule's design: the cut lands while long flows run).
        let t = small_ls();
        let cfg = SimConfig {
            max_time_ns: 200_000_000,
            ..Default::default()
        };
        let sched = FailureSchedule::new(100_000).link_down(2_000_000, 0);
        assert_engines_agree_on_mixed(&t, RoutingScheme::Ecmp, cfg, 61, Some(&sched));
    }

    #[test]
    fn fast_datapath_matches_reference_under_link_flap() {
        // Down-then-up on the same cable: the second reconvergence must
        // restore the pristine baseline plane (and its FIB cache) with
        // both datapaths still in lockstep.
        let t = small_ls();
        let cfg = SimConfig {
            max_time_ns: 200_000_000,
            ..Default::default()
        };
        let sched = FailureSchedule::new(50_000)
            .link_down(1_000_000, 3)
            .link_up(4_000_000, 3);
        assert_engines_agree_on_mixed(&t, RoutingScheme::Ecmp, cfg, 62, Some(&sched));
    }

    #[test]
    fn fast_datapath_matches_reference_under_switch_failure_on_dring() {
        // A whole router dies and later returns on the DRing under
        // Shortest-Union(2): incident cables and the rack's server links
        // all cut at once, stranding that rack's flows until repair.
        let t = DRing::uniform(6, 2, 24).build();
        let cfg = SimConfig {
            max_time_ns: 200_000_000,
            ..Default::default()
        };
        let sched = FailureSchedule::new(100_000)
            .switch_down(1_500_000, 3)
            .switch_up(8_000_000, 3);
        assert_engines_agree_on_mixed(&t, RoutingScheme::ShortestUnion(2), cfg, 63, Some(&sched));
    }

    #[test]
    fn failure_drops_are_accounted() {
        // Cutting the only spine path a flow is pinned to mid-transfer
        // must record blackholed packets in dropped_packets. DCTCP keeps
        // the queues below the drop point, so every drop in the cut run
        // is failure-induced, not congestion.
        let t = small_ls();
        let run = |sched: FailureSchedule| {
            let cfg = SimConfig {
                max_time_ns: 50_000_000,
                transport: crate::types::Transport::Dctcp,
                ..Default::default()
            };
            let mut s = sim_with_failures(&t, RoutingScheme::Ecmp, cfg, 64, sched);
            s.add_flow(0, 23, 1_000_000, 0).unwrap();
            s.run()
        };
        let clean = run(FailureSchedule::new(100_000));
        assert_eq!(clean.dropped_packets, 0, "empty schedule must be a no-op");
        assert_eq!(clean.unfinished(), 0);
        // Cut every leaf0<->spine cable briefly: whatever path the flow
        // hashed to dies under it.
        let mut sched = FailureSchedule::new(100_000);
        for (e, &(a, b)) in t.graph.edges().iter().enumerate() {
            if a == 0 || b == 0 {
                sched = sched
                    .link_down(200_000, e as u32)
                    .link_up(1_000_000, e as u32);
            }
        }
        let cut = run(sched);
        assert!(cut.dropped_packets > 0, "no packet hit the cut");
        assert_eq!(cut.unfinished(), 0, "flow must recover after repair");
        let f = &cut.flows[0];
        assert!(f.retransmits > 0 && f.timeouts > 0, "{f:?}");
    }

    #[test]
    fn severed_rack_ends_unfinished_without_hanging() {
        // Both routers a rack could reach die and never come back, with
        // max_time_ns unbounded: the starvation guard must let the severed
        // flow's RTO die (ending it as unfinished) instead of re-arming
        // forever, while unaffected flows complete normally.
        let t = DRing::uniform(6, 2, 24).build();
        let cfg = SimConfig::default(); // max_time_ns = u64::MAX
        let sched = FailureSchedule::new(100_000)
            .switch_down(50_000, 0)
            .switch_down(50_000, 1);
        let mut s = sim_with_failures(&t, RoutingScheme::ShortestUnion(2), cfg, 65, sched);
        let victim_src = t.servers_on(0).start;
        let remote = t.servers_on(6).start;
        let bystander_src = t.servers_on(4).start;
        let victim = s.add_flow(victim_src, remote, 5_000_000, 0).unwrap();
        let bystander = s.add_flow(bystander_src, remote, 200_000, 0).unwrap();
        let r = s.run();
        assert!(
            r.flows[victim as usize].fct_ns.is_none(),
            "severed flow cannot finish"
        );
        assert!(
            r.flows[bystander as usize].fct_ns.is_some(),
            "unaffected flow must finish"
        );
        assert!(r.end_ns < u64::MAX, "the event queue must drain");
    }

    #[test]
    fn reconvergence_recovers_flow_with_fewer_retransmits() {
        // The acceptance demo in test form: cut the data path's first-hop
        // cable mid-flow. With a 100 us reconvergence the flow survives by
        // rerouting; with a control plane that never reacts every RTO
        // retransmits into the blackhole. Reconvergence must complete the
        // flow with strictly fewer retransmissions.
        let t = small_ls();
        // Probe run (same seed => same ECMP hash => same path) to find the
        // cable carrying the flow's data: the max-bytes edge at leaf 0.
        let probe_edge = {
            let fs = Arc::new(ForwardingState::build(&t.graph, RoutingScheme::Ecmp));
            let mut s = Simulation::new(&t, fs, SimConfig::default(), 66);
            s.add_flow(0, 23, 1_000_000, 0).unwrap();
            s.run();
            let tx = s.switch_link_tx_bytes();
            (0..t.graph.num_edges())
                .filter(|&e| {
                    let (a, b) = t.graph.edges()[e as usize];
                    a == 0 || b == 0
                })
                .max_by_key(|&e| tx[2 * e as usize] + tx[2 * e as usize + 1])
                .expect("leaf 0 has uplinks")
        };
        // A 30 s horizon for both runs: the reconverged flow finishes in
        // ~1 ms; the blackholed one keeps burning an RTO retransmission
        // every backed-off timeout (capped at 256 ms) for the full 30 s,
        // which is the real cost of a control plane that never reacts.
        let run = |delay: Ns| {
            let cfg = SimConfig {
                max_time_ns: 30_000_000_000,
                ..Default::default()
            };
            let sched = FailureSchedule::new(delay).link_down(100_000, probe_edge);
            let mut s = sim_with_failures(&t, RoutingScheme::Ecmp, cfg, 66, sched);
            s.add_flow(0, 23, 1_000_000, 0).unwrap();
            s.run()
        };
        let reconv = run(100_000);
        let blackhole = run(3_600_000_000_000); // control plane never reacts
        let rf = &reconv.flows[0];
        let bf = &blackhole.flows[0];
        assert!(
            rf.fct_ns.is_some(),
            "reconvergence must let the flow finish: {rf:?}"
        );
        assert!(
            bf.fct_ns.is_none(),
            "a permanent blackhole cannot finish: {bf:?}"
        );
        assert!(
            rf.retransmits < bf.retransmits,
            "reconvergence {} rtx vs blackhole {} rtx",
            rf.retransmits,
            bf.retransmits
        );
    }

    #[test]
    fn repair_restores_pristine_plane_and_cache() {
        // After a full down->up cycle plus reconvergence the engine must
        // be back on the baseline plane with the FIB hot-cache re-armed.
        let t = small_ls();
        let cfg = SimConfig {
            max_time_ns: 100_000_000,
            ..Default::default()
        };
        let sched = FailureSchedule::new(50_000)
            .link_down(50_000, 2)
            .link_up(500_000, 2);
        let mut s = sim_with_failures(&t, RoutingScheme::Ecmp, cfg, 67, sched);
        s.add_flow(0, 23, 2_000_000, 0).unwrap();
        let r = s.run();
        assert_eq!(r.unfinished(), 0);
        assert!(
            r.used_fib_cache,
            "repair must restore the baseline hot-cache"
        );
        assert!(s.uses_fib_cache());
    }

    #[test]
    fn failure_schedule_validation() {
        let t = small_ls();
        let fs = Arc::new(ForwardingState::build(&t.graph, RoutingScheme::Ecmp));
        let mut s = Simulation::new(&t, Arc::clone(&fs), SimConfig::default(), 68);
        let ne = t.graph.num_edges();
        let err = s
            .set_failure_schedule(
                &t,
                Arc::clone(&fs),
                FailureSchedule::new(0).link_down(0, ne),
            )
            .unwrap_err();
        assert_eq!(err, SimError::BadLink(ne));
        let err = s
            .set_failure_schedule(
                &t,
                Arc::clone(&fs),
                FailureSchedule::new(0).switch_up(0, 99),
            )
            .unwrap_err();
        assert_eq!(err, SimError::BadSwitch(99));
        // A plane built for a different topology is rejected.
        let other = DRing::uniform(6, 2, 24).build();
        let ofs = Arc::new(ForwardingState::build(&other.graph, RoutingScheme::Ecmp));
        let err = s
            .set_failure_schedule(&t, ofs, FailureSchedule::new(0))
            .unwrap_err();
        assert_eq!(err, SimError::PlaneMismatch);
        s.set_failure_schedule(&t, Arc::clone(&fs), FailureSchedule::new(0))
            .unwrap();
        let err = s
            .set_failure_schedule(&t, fs, FailureSchedule::new(0))
            .unwrap_err();
        assert_eq!(err, SimError::ScheduleAlreadySet);
    }

    #[test]
    fn flows_added_before_or_after_the_failure_schedule_run_alike() {
        // Event keys depend only on what an event is, not on when it was
        // scheduled, so installing the schedule before, between or after
        // the flows gives one run, event count included.
        let t = small_ls();
        let cfg = SimConfig {
            max_time_ns: 100_000_000,
            ..Default::default()
        };
        let mut sched = FailureSchedule::new(100_000);
        for (e, &(a, b)) in t.graph.edges().iter().enumerate() {
            if a == 0 || b == 0 {
                sched = sched
                    .link_down(200_000, e as u32)
                    .link_up(700_000, e as u32);
            }
        }
        let run = |schedule_after: u32| {
            let fs = Arc::new(ForwardingState::build(&t.graph, RoutingScheme::Ecmp));
            let mut s = Simulation::new(&t, Arc::clone(&fs), cfg, 74);
            for i in 0..8 {
                if i == schedule_after {
                    s.set_failure_schedule(&t, Arc::clone(&fs), sched.clone())
                        .unwrap();
                }
                s.add_flow(i, 23 - i, 300_000, (i as u64) * 20_000).unwrap();
            }
            if schedule_after == 8 {
                s.set_failure_schedule(&t, Arc::clone(&fs), sched.clone())
                    .unwrap();
            }
            let r = s.run();
            (r, s.pkt_hops(), s.switch_link_tx_bytes())
        };
        let first = run(0);
        assert!(first.0.dropped_packets > 0, "the cut must hit traffic");
        assert_eq!(run(4), first);
        assert_eq!(run(8), first);
    }

    #[test]
    fn fast_fallback_is_surfaced_in_report() {
        // The fast datapath silently degrades to per-hop walks when the
        // plane exposes no FIB cache (e.g. DualPlane); the report must say
        // so instead of letting drivers publish slow-walk numbers as
        // fast-path throughput.
        use spineless_routing::DualPlane;
        let t = DRing::uniform(6, 2, 24).build();
        let dual = DualPlane::by_path_count(&t.graph, 2, 4);
        let mut s = Simulation::new(&t, dual, SimConfig::default(), 69);
        s.add_flow(0, 13, 20_000, 0).unwrap();
        assert!(
            !s.run().used_fib_cache,
            "DualPlane fallback must be surfaced"
        );

        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let mut s = Simulation::new(&t, fs, SimConfig::default(), 69);
        s.add_flow(0, 13, 20_000, 0).unwrap();
        assert!(s.run().used_fib_cache);

        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let cfg = SimConfig {
            datapath: Datapath::Reference,
            ..Default::default()
        };
        let mut s = Simulation::new(&t, fs, cfg, 69);
        s.add_flow(0, 13, 20_000, 0).unwrap();
        assert!(!s.run().used_fib_cache, "reference datapath walks per hop");
    }
}
