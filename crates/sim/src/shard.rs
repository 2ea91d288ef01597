//! The window protocol that runs one [`Simulation`] on several cores.
//!
//! A [`Simulation`] whose shard count is two or more partitions the fabric
//! into lookahead domains (one shard per rack group, via
//! [`spineless_topo::partition_domains`]) and runs each shard's event loop
//! independently inside synchronous windows of a conservative
//! lower-bound-timestamp (LBTS) protocol. Every shard runs the serial
//! loop's per-packet handlers — the shared `datapath` core — on the serial
//! loop's scheduling (`engine::SerialSink`: the same event queue, RTO
//! timing wheel and terminal-`TxDone` elision), and differs from it only
//! in routing the events another shard owns to that shard:
//!
//! * **State ownership.** Every piece of mutable state has exactly one
//!   owning shard, and only that shard holds it: a directed link (queue,
//!   wire, tx-bytes, drop counter) belongs to the shard of its *tail*
//!   switch; a server and both its link directions belong to its rack's
//!   shard; a flow's sender-side TCP state lives in the source rack's
//!   shard and its receiver state in the destination rack's shard; a PFC
//!   ingress account and a link's cut time belong to the shard of the
//!   link's head, and sit at the slot of the reverse link, whose tail is
//!   that node. A shard numbers its senders, receivers and links densely,
//!   so its vectors shrink as shards are added; one shared table maps
//!   each link to its owner and slot, packets carry the slot of the
//!   endpoint they travel to, and each endpoint keeps its peer's slot.
//!   The only state every shard keeps whole is the read-mostly fabric:
//!   the plant, the planes, the link residuals and the 1-byte alive map.
//!   The only cross-shard interactions are a packet arriving at the head
//!   of a boundary link and a pause frame reaching that link's
//!   transmitter.
//! * **Lookahead.** A packet offered to a boundary link at time `t`
//!   cannot arrive before `t + tx + delay`, so `link_delay_ns` plus the
//!   1-byte serialization time lower-bounds every cross-shard message; a
//!   pause frame crosses the same wire at 64 bytes, so it is never
//!   faster. Each window, the coordinator computes `LBTS = min(next event
//!   anywhere) + lookahead` and shards process every local event with
//!   `t < LBTS`; any message emitted during the window is stamped
//!   `>= LBTS`, so barrier-time delivery preserves causality (the
//!   classic null-message bound, batched per window). A shard's RTO wheel
//!   advances its anchor to the LBTS at the window edge, which is sound
//!   because nothing is later inserted below it: messages arrive at or
//!   after the LBTS, and timers are armed from later events.
//! * **Deterministic order.** Every event is keyed by its time and its
//!   *content rank* — `(class, entity, detail)` packed into 64 bits —
//!   which is unique per event and computable by sender and receiver
//!   alike. The serial loop uses the same key, so a run is bit-identical
//!   to the serial loop's at every shard count, which the engine tests
//!   and `tests/proptest_sim.rs` pin exactly — the event count included,
//!   since a shard materializes exactly the events the serial loop does
//!   for the state it owns.
//! * **Failures.** The coordinator drives the failure schedule's
//!   [`Agenda`] — the one the serial loop drives — at window barriers:
//!   an action at `t` caps the window at `t`, every shard applies the
//!   same link transitions to its fabric replica through the shared
//!   `set_link_alive` (only the owner's queues hold packets to flush),
//!   and reconvergence swaps in the plane the agenda rebuilds. The
//!   serial loop applies each action at the same point, before every
//!   event at its time.
//! * **One barrier per window, no extra thread.** k shards run on k
//!   threads: shard 0 on the caller's, the rest on scoped threads. Each
//!   window ends at a `SpinBarrier` whose last arrival runs the
//!   coordinator and publishes the next window's plan before anyone is
//!   released. Waiters spin briefly and then block, and spin only when
//!   every shard has a core of its own; oversubscribed, they block at
//!   once, since spinning would only delay the thread they wait for.
//!
//! [`choose_engine`] picks the shard count a [`Simulation`] runs with
//! unless the caller pins one.
//!
//! [`Simulation`]: crate::engine::Simulation

use crate::datapath::{rank_of, Core, Ev, Plant, Sink, SwapPlane};
use crate::engine::SerialSink;
use crate::equeue::HeapQueue;
use crate::failure::Agenda;
use crate::types::{DirLinkId, FlowId, FlowRecord, Ns, SimConfig};
use spineless_routing::{FibCache, Forwarding};
use spineless_topo::DomainPartition;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Barrier polls before a waiter blocks, when every shard has a core.
const SPIN_POLLS: u32 = 2048;

/// Which shard owns each directed link and where its state sits there,
/// fixed for one run; every shard holds a handle to the one table.
#[derive(Clone)]
struct Owners {
    /// Per directed link: the shard of its tail and the link's slot among
    /// that shard's links.
    links: Arc<[(u32, u32)]>,
    /// First server-uplink link id.
    base_up: u32,
    /// Servers in the fabric (uplinks, and then downlinks, per server).
    servers: u32,
}

impl Owners {
    /// Link ownership of `plant` under `shard_of`, and the number of
    /// links each of the `k` shards owns.
    fn new(plant: &Plant, shard_of: &[u32], k: u32) -> (Owners, Vec<u32>) {
        let mut tail = vec![0u32; plant.num_links()];
        for (e, &(a, b)) in plant.edge_ends.iter().enumerate() {
            tail[2 * e] = shard_of[a as usize];
            tail[2 * e + 1] = shard_of[b as usize];
        }
        let (base_up, base_down) = (plant.base_up() as usize, plant.base_down() as usize);
        for (s, &sw) in plant.server_switch.iter().enumerate() {
            tail[base_up + s] = shard_of[sw as usize];
            tail[base_down + s] = shard_of[sw as usize];
        }
        let mut counts = vec![0u32; k as usize];
        let links = tail
            .into_iter()
            .map(|sh| {
                let slot = counts[sh as usize];
                counts[sh as usize] += 1;
                (sh, slot)
            })
            .collect();
        let owners = Owners {
            links,
            base_up: plant.base_up(),
            servers: plant.server_switch.len() as u32,
        };
        (owners, counts)
    }

    /// The other direction of `l`'s cable, whose tail is `l`'s head.
    #[inline]
    fn reverse(&self, l: DirLinkId) -> DirLinkId {
        if l < self.base_up {
            l ^ 1
        } else if l < self.base_up + self.servers {
            l + self.servers
        } else {
            l - self.servers
        }
    }
}

/// A shard's [`Sink`]: the serial loop's sink for the events this shard
/// owns, and per-destination outgoing buffers for the rest.
pub(crate) struct ShardSink {
    id: u32,
    owners: Owners,
    local: SerialSink,
    /// Events other shards sent here. They arrive a window late, out of
    /// step with the local delay lanes, so they wait in a heap of their
    /// own — a few hundred entries — and merge with the local stream by
    /// key.
    inbox: HeapQueue<Ev>,
    /// Per destination shard: the events it owns, `(t, event)`, handed
    /// over when the window ends.
    outgoing: Vec<Vec<(Ns, Ev)>>,
    /// Per sender slot: the flow's receiver slot, in the receiver's shard.
    receiver_of: Vec<u32>,
    /// Per receiver slot: the flow's sender slot, in the sender's shard.
    sender_of: Vec<u32>,
}

impl ShardSink {
    /// Pops the next event below `(lbts, 0)` in key order, local and
    /// delivered alike.
    fn next_event(&mut self, lbts: Ns) -> Option<(Ns, u64, Ev)> {
        let edge = (lbts, 0);
        let msg = self.inbox.peek_key().filter(|&k| k < edge);
        match self.local.next_event_below(msg.unwrap_or(edge)) {
            None if msg.is_some() => self.inbox.pop(),
            next => next,
        }
    }

    /// A lower bound on the next event's time (see
    /// [`SerialSink::head_time`]).
    fn head_time(&mut self) -> Ns {
        let msg = self.inbox.peek_key().map_or(Ns::MAX, |(t, _)| t);
        self.local.head_time().min(msg)
    }
}

impl Sink for ShardSink {
    #[inline]
    fn push(&mut self, t: Ns, ev: Ev) {
        let to = match ev {
            Ev::Arrive(link, _) => self.owners.links[self.owners.reverse(link) as usize].0,
            // A pause frame acts on the link's transmitter.
            Ev::Pfc(link, _) => self.owners.links[link as usize].0,
            _ => self.id,
        };
        if to == self.id {
            self.local.push(t, ev);
        } else {
            self.outgoing[to as usize].push((t, ev));
        }
    }

    /// RTOs are sender-local.
    fn arm_rto(&mut self, t: Ns, flow: FlowId, slot: u32, gen: u64) {
        self.local.arm_rto(t, flow, slot, gen);
    }

    fn disarm_rto(&mut self, slot: u32) {
        self.local.disarm_rto(slot);
    }

    #[inline]
    fn receiver_of(&self, slot: u32) -> u32 {
        self.receiver_of[slot as usize]
    }

    #[inline]
    fn sender_of(&self, slot: u32) -> u32 {
        self.sender_of[slot as usize]
    }

    #[inline]
    fn tail_slot(&self, l: DirLinkId) -> usize {
        self.owners.links[l as usize].1 as usize
    }

    #[inline]
    fn head_slot(&self, l: DirLinkId) -> usize {
        self.owners.links[self.owners.reverse(l) as usize].1 as usize
    }

    fn owns_tail(&self, l: DirLinkId) -> bool {
        self.owners.links[l as usize].0 == self.id
    }

    fn owns_head(&self, l: DirLinkId) -> bool {
        self.owners.links[self.owners.reverse(l) as usize].0 == self.id
    }

    fn pending_starts(&self) -> usize {
        self.local.pending_starts()
    }

    fn slots(&self) -> [u32; 2] {
        [self.receiver_of.len() as u32, self.sender_of.len() as u32]
    }

    #[cfg(test)]
    fn state_vecs(&self) -> Vec<crate::datapath::StateVec> {
        let mut all = self.local.state_vecs();
        all.push(crate::datapath::state_vec("receiver_of", &self.receiver_of));
        all.push(crate::datapath::state_vec("sender_of", &self.sender_of));
        all
    }
}

/// One lookahead domain: the shared datapath over the state it owns.
/// The shards sit side by side in one vector and each is written by its
/// own thread on every event, so each starts on a fresh pair of cache
/// lines: no line holds two shards' state.
#[repr(align(128))]
struct Shard<F: Forwarding> {
    core: Core<Arc<F>, ShardSink>,
    events: u64,
    /// Time of the last event processed.
    #[cfg(test)]
    max_t: Ns,
}

/// The coordinator's per-window instructions to every shard.
#[derive(Clone, Default)]
struct Plan {
    quit: bool,
    /// Process local events with `t < lbts`.
    lbts: Ns,
    /// Fabric transitions to apply before the window: `(time, directed
    /// link, alive)`.
    transitions: Vec<(Ns, DirLinkId, bool)>,
    /// The reconverged plane forwarding this window (`None` = baseline).
    plane: Option<Arc<SwapPlane>>,
    /// Failure-schedule actions still pending (the RTO starvation guard's
    /// input).
    ctrl_pending: u32,
}

/// Cross-shard rendezvous: outboxes, next-event times and the plans.
struct SyncShared {
    /// Messages addressed to each shard, `(t, event)`.
    outbox: Vec<Mutex<Vec<(Ns, Ev)>>>,
    /// Lower bound on the earliest undrained message per shard; written
    /// only under that shard's outbox lock.
    inbox_min: Vec<AtomicU64>,
    /// A lower bound on each shard's earliest pending local event after
    /// its last window.
    next_time: Vec<AtomicU64>,
    /// Each shard's plan for the coming window, written by the barrier's
    /// leader before it releases the shards.
    plans: Vec<Mutex<Plan>>,
}

impl SyncShared {
    fn new(k: usize) -> SyncShared {
        SyncShared {
            outbox: (0..k).map(|_| Mutex::new(Vec::new())).collect(),
            inbox_min: (0..k).map(|_| AtomicU64::new(u64::MAX)).collect(),
            next_time: (0..k).map(|_| AtomicU64::new(u64::MAX)).collect(),
            plans: (0..k).map(|_| Mutex::new(Plan::default())).collect(),
        }
    }
}

/// The sharded state of a [`Simulation`](crate::engine::Simulation)
/// running two or more lookahead domains.
pub(crate) struct Sharded<F: Forwarding> {
    shards: Vec<Shard<F>>,
    /// Shard of each switch.
    shard_of: Vec<u32>,
    owners: Owners,
    sync: SyncShared,
    lookahead: Ns,
    /// Barrier polls before blocking: [`SPIN_POLLS`] when every shard has
    /// a core of its own, else none.
    spin: u32,
}

impl<F: Forwarding> Sharded<F> {
    /// Shards `plant` by `partition`, every admitted flow's start handed
    /// to the shard that owns its sender; `faults` turns on the fault
    /// machinery, `residuals` installs per-link rate fractions.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        partition: DomainPartition,
        cfg: SimConfig,
        fs: &Arc<F>,
        plant: &Arc<Plant>,
        hot: &Option<Arc<FibCache>>,
        faults: bool,
        residuals: &Option<Arc<[f64]>>,
        threads: u32,
    ) -> Sharded<F> {
        let k = partition.shards;
        let (owners, links) = Owners::new(plant, &partition.shard_of, k);
        let home = |server: u32| {
            partition.shard_of[plant.server_switch[server as usize] as usize] as usize
        };
        let mut flows = vec![(0usize, 0usize); k as usize];
        for sp in &plant.specs {
            flows[home(sp.src)].0 += 1;
            flows[home(sp.dst)].1 += 1;
        }
        let shards = (0..k)
            .zip(flows)
            .zip(links)
            .map(|((id, (senders, receivers)), links)| {
                let mut local = SerialSink::new(&cfg);
                local.reserve_starts(senders);
                let sink = ShardSink {
                    id,
                    owners: owners.clone(),
                    local,
                    inbox: HeapQueue::new(),
                    outgoing: (0..k).map(|_| Vec::new()).collect(),
                    receiver_of: Vec::with_capacity(senders),
                    sender_of: Vec::with_capacity(receivers),
                };
                let mut core = Core::new(
                    cfg,
                    fs.clone(),
                    plant.clone(),
                    hot.clone(),
                    sink,
                    links as usize,
                );
                if faults {
                    core.enable_faults();
                }
                core.rate_scale = residuals.clone();
                Shard {
                    core,
                    events: 0,
                    #[cfg(test)]
                    max_t: 0,
                }
            })
            .collect();
        let mut sharded = Sharded {
            shards,
            shard_of: partition.shard_of,
            owners,
            sync: SyncShared::new(k as usize),
            // The smallest on-wire packet is 1 byte (or a 0-byte ACK if so
            // configured), and serialization takes at least 1 ns: a
            // cross-shard arrival is never earlier than that plus
            // propagation, so the lookahead is always positive.
            lookahead: cfg.link_delay_ns + cfg.tx_ns(cfg.ack_bytes.min(1)),
            spin: if k <= threads { SPIN_POLLS } else { 0 },
        };
        for f in 0..plant.specs.len() {
            sharded.admit(f as FlowId);
        }
        sharded
    }

    /// Number of lookahead domains.
    pub(crate) fn len(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The shard of `server`'s rack.
    fn home(&self, server: u32) -> usize {
        self.shard_of[self.shards[0].core.plant.server_switch[server as usize] as usize] as usize
    }

    /// Gives flow `f` the next sender and receiver slots of the shards
    /// that own its endpoints, each told the other's slot, and schedules
    /// its start; its state is created when it starts. Flows are admitted
    /// in id order, so each shard's senders are too.
    pub(crate) fn admit(&mut self, f: FlowId) {
        let sp = self.shards[0].core.plant.specs[f as usize];
        let (so, ro) = (self.home(sp.src), self.home(sp.dst));
        let sslot = self.shards[so].core.sink.receiver_of.len() as u32;
        let rslot = self.shards[ro].core.sink.sender_of.len() as u32;
        let sender = &mut self.shards[so].core.sink;
        sender.receiver_of.push(rslot);
        sender.local.add_start(sp.start_ns, f, sslot);
        self.shards[ro].core.sink.sender_of.push(sslot);
    }

    /// The shards' datapath cores.
    pub(crate) fn cores(&self) -> impl Iterator<Item = &Core<Arc<F>, ShardSink>> {
        self.shards.iter().map(|s| &s.core)
    }

    /// The shards' datapath cores, mutably.
    pub(crate) fn cores_mut(&mut self) -> impl Iterator<Item = &mut Core<Arc<F>, ShardSink>> {
        self.shards.iter_mut().map(|s| &mut s.core)
    }

    /// Events processed by every shard.
    pub(crate) fn events(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// Time of the last event any shard processed.
    #[cfg(test)]
    pub(crate) fn drain_ns(&self) -> Ns {
        self.shards.iter().map(|s| s.max_t).max().unwrap_or(0)
    }

    /// Every flow's outcome in id order, from the shards holding the
    /// senders: replaying admission, the next sender slot of the flow's
    /// home shard is its own.
    pub(crate) fn records(&self) -> Vec<FlowRecord> {
        let mut next = vec![0u32; self.shards.len()];
        let specs = &self.shards[0].core.plant.specs;
        (0..specs.len() as FlowId)
            .map(|f| {
                let so = self.home(specs[f as usize].src);
                let slot = next[so];
                next[so] += 1;
                specs[f as usize].record(f, self.shards[so].core.outcome(slot))
            })
            .collect()
    }

    /// Bytes sent on each of the first `n` directed links, from the
    /// shards owning their tails.
    pub(crate) fn switch_link_tx_bytes(&self, n: usize) -> Vec<u64> {
        let tx =
            |&(sh, slot): &(u32, u32)| self.shards[sh as usize].core.queues[slot as usize].tx_bytes;
        self.owners.links[..n].iter().map(tx).collect()
    }

    /// Processes every event and failure-schedule action at or before
    /// `deadline`, window by window: shard 0 on the caller's thread, the
    /// others on scoped threads of their own.
    pub(crate) fn advance(&mut self, agenda: Option<&mut Agenda>, deadline: Ns) {
        let sync = &self.sync;
        // Flows admitted since the last advance may have moved a head.
        for (s, t) in self.shards.iter_mut().zip(&sync.next_time) {
            t.store(s.core.sink.head_time(), Ordering::Release);
        }
        let coord = Mutex::new(Coordinator {
            agenda,
            lookahead: self.lookahead,
            deadline,
        });
        let barrier = SpinBarrier::new(self.shards.len() as u32, self.spin);
        let lead = || {
            let plan = coord
                .lock()
                .expect("a shard panicked while leading")
                .step(sync);
            for slot in &sync.plans {
                *slot.lock().expect("a shard panicked while leading") = plan.clone();
            }
        };
        let (first, rest) = self.shards.split_first_mut().expect("at least two shards");
        std::thread::scope(|s| {
            for shard in rest {
                let (barrier, lead) = (&barrier, &lead);
                s.spawn(move || shard.drive(barrier, lead, sync));
            }
            first.drive(&barrier, &lead, sync);
        });
    }
}

/// Coordinator state for one advance.
struct Coordinator<'a> {
    agenda: Option<&'a mut Agenda>,
    lookahead: Ns,
    /// Last instant this advance may process.
    deadline: Ns,
}

impl Coordinator<'_> {
    /// Computes the next window plan: applies every agenda action that
    /// is globally safe (all events and messages are at or beyond it)
    /// and within the deadline, then bounds the window by the lookahead,
    /// the next action's time and the deadline. A transition can emit
    /// events of its own (pause frames a dead-link flush frees), stamped
    /// from its time, so an applied action also bounds the window like a
    /// pending event would.
    fn step(&mut self, sync: &SyncShared) -> Plan {
        let mut transitions: Vec<(Ns, DirLinkId, bool)> = Vec::new();
        let mut flips = Vec::new();
        let mut floor = Ns::MAX;
        loop {
            let gm = (0..sync.next_time.len())
                .map(|i| {
                    sync.next_time[i]
                        .load(Ordering::Acquire)
                        .min(sync.inbox_min[i].load(Ordering::Acquire))
                })
                .min()
                .unwrap_or(u64::MAX);
            let limit = gm.min(self.deadline);
            let due = self
                .agenda
                .as_deref_mut()
                .filter(|a| a.next_time().is_some_and(|t| t <= limit));
            if let Some(tc) = due.and_then(|a| a.apply_next(&mut flips)) {
                transitions.extend(flips.drain(..).map(|(l, alive)| (tc, l, alive)));
                floor = floor.min(tc);
                continue;
            }
            let lo = gm.min(floor);
            if lo == u64::MAX || lo > self.deadline {
                // Quiescent (no events, no messages, no applicable control
                // left) or past the deadline.
                return self.plan(true, 0, transitions);
            }
            let mut lbts = lo.saturating_add(self.lookahead);
            if let Some(tc) = self.agenda.as_ref().and_then(|a| a.next_time()) {
                lbts = lbts.min(tc);
            }
            lbts = lbts.min(self.deadline.saturating_add(1));
            return self.plan(false, lbts, transitions);
        }
    }

    fn plan(&self, quit: bool, lbts: Ns, transitions: Vec<(Ns, DirLinkId, bool)>) -> Plan {
        Plan {
            quit,
            lbts,
            transitions,
            plane: self.agenda.as_ref().and_then(|a| a.plane()),
            ctrl_pending: self.agenda.as_ref().map_or(0, |a| a.pending()),
        }
    }
}

impl<F: Forwarding> Shard<F> {
    /// Runs windows until the plan says quit (or another shard panicked).
    fn drive(&mut self, barrier: &SpinBarrier, lead: &(impl Fn() + Sync), sync: &SyncShared) {
        let _poison = PoisonOnPanic(barrier);
        let id = self.core.sink.id as usize;
        while barrier.wait(lead) {
            let plan = std::mem::take(&mut *sync.plans[id].lock().expect("plan lock"));
            if plan.quit {
                return;
            }
            self.run_round(&plan, sync);
        }
    }

    /// One synchronous window: apply fabric transitions, drain the
    /// inbox, process every local event below the LBTS, hand over the
    /// events owned elsewhere, publish the new head time.
    fn run_round(&mut self, plan: &Plan, sync: &SyncShared) {
        let core = &mut self.core;
        let id = core.sink.id as usize;
        let same_plane = match (&core.swap, &plan.plane) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        };
        if !same_plane {
            core.install_plane(plan.plane.clone());
        }
        core.ctrl_pending = plan.ctrl_pending;
        for &(t, link, alive) in &plan.transitions {
            core.now = t;
            core.set_link_alive(link, alive);
        }
        {
            let mut inbox = sync.outbox[id].lock().expect("inbox lock");
            sync.inbox_min[id].store(u64::MAX, Ordering::Release);
            for (t, ev) in inbox.drain(..) {
                core.sink.inbox.push(t, rank_of(&ev), ev);
            }
        }
        while let Some((t, r, ev)) = core.sink.next_event(plan.lbts) {
            #[cfg(test)]
            {
                self.max_t = self.max_t.max(t);
            }
            self.events += 1;
            core.handle(t, r, ev);
        }
        for (to, out) in core.sink.outgoing.iter_mut().enumerate() {
            if out.is_empty() {
                continue;
            }
            let first = out.iter().map(|&(t, _)| t).min().expect("non-empty");
            let mut inbox = sync.outbox[to].lock().expect("outbox lock");
            inbox.append(out);
            sync.inbox_min[to].fetch_min(first, Ordering::AcqRel);
        }
        sync.next_time[id].store(core.sink.head_time(), Ordering::Release);
    }
}

/// A reusable barrier for `n` threads that spins for a bounded number of
/// polls before it blocks, and whose last arrival runs a leader action
/// before it releases the others.
pub(crate) struct SpinBarrier {
    n: u32,
    /// Polls of `round` before a waiter blocks (0 = block at once).
    spin: u32,
    arrived: AtomicU32,
    /// Completed rounds. The leader bumps it (`Release`, under `sleepers`'
    /// lock) after its action; waiters poll it (`Acquire`), so whatever
    /// the action wrote is visible to every thread it releases.
    round: AtomicU32,
    /// Set when a thread panicked: every wait returns `false` at once.
    poisoned: AtomicBool,
    /// Waiters blocked on `wake`. A waiter checks `round` and counts
    /// itself under this lock, and the leader bumps `round` and reads the
    /// count under it, so no wake-up is lost.
    sleepers: Mutex<u32>,
    wake: Condvar,
}

impl SpinBarrier {
    /// A barrier for `n` threads polling `spin` times before blocking.
    pub(crate) fn new(n: u32, spin: u32) -> SpinBarrier {
        SpinBarrier {
            n,
            spin,
            arrived: AtomicU32::new(0),
            round: AtomicU32::new(0),
            poisoned: AtomicBool::new(false),
            sleepers: Mutex::new(0),
            wake: Condvar::new(),
        }
    }

    /// Blocks until all `n` threads have arrived; the last to arrive runs
    /// `lead` before anyone leaves. Returns `false` if the barrier was
    /// poisoned (another thread panicked): the caller must stop.
    pub(crate) fn wait(&self, lead: impl FnOnce()) -> bool {
        let round = self.round.load(Ordering::Acquire);
        // `AcqRel`: the last arrival sees everything the others wrote
        // before they arrived.
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            lead();
            // Nobody arrives again before `round` moves.
            self.arrived.store(0, Ordering::Relaxed);
            let sleepers = self.sleepers.lock().expect("barrier lock");
            self.round.store(round.wrapping_add(1), Ordering::Release);
            if *sleepers > 0 {
                self.wake.notify_all();
            }
            return !self.poisoned.load(Ordering::Acquire);
        }
        for _ in 0..self.spin {
            if self.round.load(Ordering::Acquire) != round {
                return !self.poisoned.load(Ordering::Acquire);
            }
            std::hint::spin_loop();
        }
        let mut sleepers = self.sleepers.lock().expect("barrier lock");
        while self.round.load(Ordering::Acquire) == round && !self.poisoned.load(Ordering::Acquire)
        {
            *sleepers += 1;
            sleepers = self.wake.wait(sleepers).expect("barrier lock");
            *sleepers -= 1;
        }
        !self.poisoned.load(Ordering::Acquire)
    }

    /// Releases every waiter for good; their `wait`s return `false`.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        // Taking the lock orders the store before any blocked waiter's
        // re-check.
        let _sleepers = self.sleepers.lock().unwrap_or_else(|e| e.into_inner());
        self.wake.notify_all();
    }
}

/// Poisons the barrier if its thread unwinds, so the other shards stop
/// waiting for it and the scope can carry the panic out.
struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

// ---- adaptive engine selection ----

/// Minimum estimated events before sharding can amortize its windows: on
/// two threads a paper-scale all-to-all of ~2.6 M estimated events runs
/// about even at two shards, one of ~10.7 M about 1.4× faster
/// (EXPERIMENTS.md P15).
pub const SHARD_MIN_EVENTS: u64 = 5_000_000;
/// Minimum fabric size before sharding: below this, domains are too few
/// racks wide for the boundary-link lookahead to cover useful work.
pub const SHARD_MIN_SWITCHES: u32 = 48;
/// Minimum admitted flows before sharding. Few flows mean few events in
/// each lookahead window, however many events the run has in all: a
/// 158-flow lossless incast runs ~56 events per 501 ns window, so window
/// synchronization costs as much as sharding saves (EXPERIMENTS.md P15).
pub const SHARD_MIN_FLOWS: u64 = 1_000;

/// Estimates the event count of a workload from its flow sizes — the
/// input [`choose_engine`] keys on. Counts ~2 wire events per hop for
/// data and ACK streams over a typical diameter-3 path, plus per-flow
/// bookkeeping; precision is irrelevant, only the order of magnitude
/// steers the choice. A lossless (PFC) run adds a flat 25% for
/// pause/resume frames and the `TxDone`s elision can no longer skip
/// (incast-heavy lossless runs measured 15–30% more events than their
/// lossy twins). Failure-schedule actions are not events.
pub fn estimate_events(
    flow_bytes: impl IntoIterator<Item = u64>,
    mss_bytes: u32,
    lossless: bool,
) -> u64 {
    let mss = mss_bytes.max(1) as u64;
    let mut est = 0u64;
    for b in flow_bytes {
        let segs = b.div_ceil(mss);
        est = est.saturating_add(segs.saturating_mul(16).saturating_add(4));
    }
    if lossless {
        est.saturating_add(est / 4)
    } else {
        est
    }
}

/// The shard count a [`Simulation`](crate::Simulation) runs with at its
/// first advance unless a count is pinned: shard a big fabric carrying
/// many flows and many events, one shard per host thread (at most one
/// per 12 switches, and 16 in all); run everything else on one shard,
/// the serial loop. `threads` is the host parallelism available to the
/// caller; on one hardware thread windows can only add overhead, so the
/// count is 1.
pub fn choose_engine(num_switches: u32, flows: u64, est_events: u64, threads: u32) -> u32 {
    if threads >= 2
        && num_switches >= SHARD_MIN_SWITCHES
        && flows >= SHARD_MIN_FLOWS
        && est_events >= SHARD_MIN_EVENTS
    {
        threads.min(num_switches / 12).clamp(2, 16)
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::Plant;
    use crate::equiv::{assert_engines_agree, plane, run_serial, sharded, Flows, Outcome};
    use crate::failure::FailureSchedule;
    use crate::types::{Datapath, PfcConfig, SimReport, Transport};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use spineless_routing::RoutingScheme;
    use spineless_topo::dring::DRing;
    use spineless_topo::leafspine::LeafSpine;
    use spineless_topo::Topology;

    /// Aggregated outcome of a finished run.
    #[derive(Debug, PartialEq)]
    struct Totals {
        report: SimReport,
        pkt_hops: u64,
        tx_bytes: Vec<u64>,
        /// Time of the last event any shard processed: the extent of the
        /// event stream, which the single-domain golden test pins.
        drain_ns: Ns,
    }

    /// The totals of one run at `shards` shards over the ECMP plane.
    fn run_sharded(
        topo: &Topology,
        cfg: SimConfig,
        seed: u64,
        shards: u32,
        flows: &Flows,
        schedule: Option<&FailureSchedule>,
    ) -> Totals {
        let mut sim = sharded(
            topo,
            RoutingScheme::Ecmp,
            cfg,
            seed,
            shards,
            flows,
            schedule,
        );
        let report = sim.run();
        Totals {
            report,
            pkt_hops: sim.pkt_hops(),
            tx_bytes: sim.switch_link_tx_bytes(),
            drain_ns: sim.drain_ns(),
        }
    }

    fn outcome(t: Totals) -> Outcome {
        (t.report, t.pkt_hops, t.tx_bytes)
    }

    fn workload(topo: &Topology, n: usize, seed: u64) -> Vec<(u32, u32, u64, Ns)> {
        let ns = topo.num_servers();
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let s = rng.gen_range(0..ns);
                let mut d = rng.gen_range(0..ns);
                while d == s {
                    d = rng.gen_range(0..ns);
                }
                (
                    s,
                    d,
                    rng.gen_range(2_000..120_000),
                    rng.gen_range(0..50_000),
                )
            })
            .collect()
    }

    #[test]
    fn sharded_matches_serial_reference_leafspine() {
        let t = LeafSpine::new(4, 2).build();
        let flows = workload(&t, 40, 1);
        assert_engines_agree(
            &t,
            RoutingScheme::Ecmp,
            SimConfig::default(),
            7,
            &flows,
            None,
        );
    }

    #[test]
    fn sharded_matches_serial_reference_dring() {
        let t = DRing::uniform(8, 2, 12).build();
        let flows = workload(&t, 60, 2);
        assert_engines_agree(
            &t,
            RoutingScheme::Ecmp,
            SimConfig::default(),
            7,
            &flows,
            None,
        );
    }

    #[test]
    fn sharded_matches_with_dctcp_and_flowlets() {
        let t = DRing::uniform(8, 2, 12).build();
        let flows = workload(&t, 50, 3);
        let cfg = SimConfig {
            transport: Transport::Dctcp,
            flowlet_gap_ns: Some(40_000),
            ..SimConfig::default()
        };
        assert_engines_agree(&t, RoutingScheme::Ecmp, cfg, 7, &flows, None);
    }

    #[test]
    fn sharded_matches_under_failure_schedule() {
        let t = DRing::uniform(8, 2, 12).build();
        let flows = workload(&t, 50, 4);
        let schedule = FailureSchedule::new(200_000)
            .link_down(60_000, 0)
            .link_down(90_000, 5)
            .switch_down(150_000, 3)
            .link_up(400_000, 0)
            .switch_up(500_000, 3)
            .link_up(520_000, 5);
        assert_engines_agree(
            &t,
            RoutingScheme::Ecmp,
            SimConfig::default(),
            7,
            &flows,
            Some(&schedule),
        );
    }

    #[test]
    fn sharded_matches_serial_with_zero_byte_acks() {
        // 0-byte ACKs still serialize for 1 ns, so wire events stay
        // strictly monotone per link, every key stays unique and the
        // lookahead stays positive: the fabric really shards.
        let t = DRing::uniform(8, 2, 12).build();
        let cfg = SimConfig {
            ack_bytes: 0,
            ..SimConfig::default()
        };
        let mut sim = crate::Simulation::new(&t, plane(&t, RoutingScheme::Ecmp), cfg, 7);
        sim.set_shards(8);
        assert_eq!(sim.shards(), 8);
        let flows = workload(&t, 40, 10);
        assert_engines_agree(&t, RoutingScheme::Ecmp, cfg, 7, &flows, None);
    }

    #[test]
    fn sharded_and_serial_end_at_the_last_completion() {
        // Stale RTOs outlive the last completion by up to an RTO; they
        // must neither extend the run nor make a horizon look hit.
        let t = DRing::uniform(8, 2, 12).build();
        let flows = workload(&t, 60, 2);
        for max_time_ns in [300_000, u64::MAX] {
            let cfg = SimConfig {
                max_time_ns,
                ..SimConfig::default()
            };
            let (r, _, _) = assert_engines_agree(&t, RoutingScheme::Ecmp, cfg, 7, &flows, None);
            assert_eq!(r.unfinished(), 0);
            let last = r.flows.iter().map(|f| f.start_ns + f.fct_ns.unwrap()).max();
            assert_eq!(Some(r.end_ns), last, "horizon {max_time_ns}");
            assert!(r.end_ns < 300_000);
        }
        // A horizon that does cut off live work ends the run there.
        let cfg = SimConfig {
            max_time_ns: 100_000,
            ..SimConfig::default()
        };
        let (r, _, _) = assert_engines_agree(&t, RoutingScheme::Ecmp, cfg, 7, &flows, None);
        assert!(r.unfinished() > 0);
        assert_eq!(r.end_ns, 100_000);
        // With no horizon, flows stranded by a switch that never returns
        // end the run at the last event that did any work — on the fast
        // serial datapath, which never sees a stale RTO, too.
        let schedule = FailureSchedule::new(50_000).switch_down(80_000, 3);
        let (r, _, _) = assert_engines_agree(
            &t,
            RoutingScheme::Ecmp,
            SimConfig::default(),
            7,
            &flows,
            Some(&schedule),
        );
        assert!(r.unfinished() > 0);
        assert!(r.end_ns < u64::MAX);
    }

    #[test]
    fn faults_apply_before_packet_events_at_the_same_instant() {
        // The flow's first packet reaches its ToR at 1 700 ns (1 200 ns of
        // serialization plus 500 ns of propagation), the instant the ToR
        // dies. The coordinator applies the fault at that barrier before
        // any packet event, so the serial engine must apply it before the
        // events at 1 700 ns too, or the packet would slip onto a spine
        // link.
        let t = LeafSpine::new(4, 2).build();
        let schedule = FailureSchedule::new(50_000)
            .switch_down(1_700, 0)
            .switch_up(400_000, 0);
        let flows = [(0, 23, 200_000, 0)];
        let (r, _, _) = assert_engines_agree(
            &t,
            RoutingScheme::Ecmp,
            SimConfig::default(),
            7,
            &flows,
            Some(&schedule),
        );
        assert_eq!(r.unfinished(), 0);
        assert!(r.dropped_packets > 0);
    }

    #[test]
    fn fault_at_time_zero_applies_before_a_flow_start_at_zero() {
        // Leaf 0 dies at 0, the instant every flow starts: both engines
        // apply the fault before the first FlowStart, so its servers'
        // first packets drop at their dead uplinks (had they started
        // first, they would be lost on the wire instead, one `Arrive`
        // event later) and recover by RTO after the repair.
        let t = LeafSpine::new(4, 2).build();
        let schedule = FailureSchedule::new(50_000)
            .switch_down(0, 0)
            .switch_up(300_000, 0);
        let flows: Vec<(u32, u32, u64, Ns)> = (0..8).map(|i| (i, 16 + i, 100_000, 0)).collect();
        let (r, _, _) = assert_engines_agree(
            &t,
            RoutingScheme::Ecmp,
            SimConfig::default(),
            7,
            &flows,
            Some(&schedule),
        );
        assert_eq!(r.unfinished(), 0);
        assert!(r.dropped_packets > 0, "nothing dropped at the dead leaf");
    }

    #[test]
    fn fault_at_the_horizon_applies() {
        // A switch dies exactly at `max_time_ns`: the fault still applies
        // (flushing its queues), its reconvergence falls past the horizon,
        // and a fault one nanosecond later never applies.
        let t = DRing::uniform(8, 2, 12).build();
        let flows = workload(&t, 60, 2);
        let cfg = SimConfig {
            max_time_ns: 200_000,
            ..SimConfig::default()
        };
        let (clean, _, _) = assert_engines_agree(&t, RoutingScheme::Ecmp, cfg, 7, &flows, None);
        let late = FailureSchedule::new(10_000).switch_down(200_001, 3);
        let (r, _, _) = assert_engines_agree(&t, RoutingScheme::Ecmp, cfg, 7, &flows, Some(&late));
        assert_eq!(r, clean, "a fault past the horizon applied");
        let at = FailureSchedule::new(10_000).switch_down(200_000, 3);
        let (r, _, _) = assert_engines_agree(&t, RoutingScheme::Ecmp, cfg, 7, &flows, Some(&at));
        assert!(
            r.dropped_packets > clean.dropped_packets,
            "the fault at the horizon did not apply"
        );
    }

    #[test]
    fn reconvergence_past_the_horizon_lets_the_rto_guard_abandon() {
        // A rack's ToR dies for good and its reconvergence would land past
        // the horizon, so nothing is pending once the fault applies: the
        // severed flow's first RTO is abandoned instead of retransmitting
        // into the void until the horizon.
        let t = DRing::uniform(8, 2, 12).build();
        let cfg = SimConfig {
            max_time_ns: 20_000_000,
            ..SimConfig::default()
        };
        let schedule = FailureSchedule::new(1_000_000_000).switch_down(50_000, 3);
        let mut flows = workload(&t, 30, 6);
        flows.push((t.servers_on(3).start, t.servers_on(6).start, 5_000_000, 0));
        let (r, _, _) =
            assert_engines_agree(&t, RoutingScheme::Ecmp, cfg, 7, &flows, Some(&schedule));
        let victim = r.flows.last().expect("victim admitted");
        assert!(victim.fct_ns.is_none(), "a severed flow cannot finish");
        assert_eq!(
            victim.timeouts, 0,
            "the RTO guard let a timer retransmit: {victim:?}"
        );
    }

    #[test]
    fn rto_guard_reads_the_links_of_a_foreign_destination() {
        // A destination ToR dies for good and its reconvergence would land
        // past the horizon. Every rack sends one long flow to it, so at
        // two or more shards most senders sit in another shard than the
        // dead rack: each must judge its RTO abandoned from the alive map
        // of a link it does not own, and never retransmit.
        let t = DRing::uniform(8, 2, 12).build();
        let cfg = SimConfig {
            max_time_ns: 20_000_000,
            ..SimConfig::default()
        };
        let dead = 3;
        let schedule = FailureSchedule::new(1_000_000_000).switch_down(50_000, dead);
        let mut flows = workload(&t, 30, 6);
        let dst = t.servers_on(dead);
        for sw in (0..t.num_switches()).filter(|&sw| sw != dead) {
            flows.push((
                t.servers_on(sw).start,
                dst.start + sw % dst.len() as u32,
                5_000_000,
                0,
            ));
        }
        let (r, _, _) =
            assert_engines_agree(&t, RoutingScheme::Ecmp, cfg, 7, &flows, Some(&schedule));
        for victim in &r.flows[30..] {
            assert!(
                victim.fct_ns.is_none(),
                "a severed flow finished: {victim:?}"
            );
            assert_eq!(
                victim.timeouts, 0,
                "the RTO guard let a timer retransmit: {victim:?}"
            );
        }
        let partition = spineless_topo::partition_domains(&t, 2);
        let home = |s: u32| partition.shard_of[t.switch_of(s) as usize];
        assert!(
            r.flows[30..].iter().any(|f| home(f.src) != home(f.dst)),
            "no victim crosses shards"
        );
    }

    #[test]
    fn shard_state_is_local() {
        // Every vector a shard keeps covers what that shard owns: the
        // links whose tail it owns and the slots of its racks' senders and
        // receivers, and its pools hold only the flows running there.
        // Adding shards splits the state instead of copying it.
        assert_eq!(std::mem::size_of::<crate::packet::Packet>(), 64);
        assert_eq!(std::mem::size_of::<crate::datapath::FlowSpec>(), 32);
        let t = DRing::uniform(8, 2, 12).build();
        let flows = workload(&t, 60, 2);
        let state = |k: u32, cfg: SimConfig| {
            let mut sim = sharded(&t, RoutingScheme::Ecmp, cfg, 7, k, &flows, None);
            sim.run();
            sim.shard_state()
        };
        let total = |shards: &[Vec<(&str, usize, usize)>], name: &str| -> usize {
            shards
                .iter()
                .flatten()
                .filter(|v| v.0 == name)
                .map(|v| v.1)
                .sum()
        };
        // Bytes outside the pools, whose size follows the flows live at
        // once in each shard rather than what the shard owns.
        let pools = ["senders", "free senders", "receivers", "free receivers"];
        let fixed = |shards: &[Vec<(&str, usize, usize)>]| -> usize {
            shards
                .iter()
                .flatten()
                .filter(|v| !pools.contains(&v.0))
                .map(|v| v.2)
                .sum()
        };
        let serial = state(1, SimConfig::default());
        let links = total(&serial, "queues");
        assert_eq!(
            links,
            2 * t.graph.num_edges() as usize + 2 * t.num_servers() as usize
        );
        for k in [2, 3, 4, 8] {
            let shards = state(k, SimConfig::default());
            assert_eq!(shards.len(), k as usize);
            assert_eq!(total(&shards, "queues"), links, "k={k}");
            for name in [
                "sender_at",
                "outcomes",
                "receiver_at",
                "receiver_of",
                "sender_of",
            ] {
                assert_eq!(total(&shards, name), flows.len(), "k={k}: {name}");
            }
            for name in ["senders", "receivers"] {
                assert!(total(&shards, name) < flows.len(), "k={k}: {name}");
            }
            for (name, len, _) in shards.iter().flatten() {
                assert_ne!(*len, flows.len(), "k={k}: {name} is sized by every flow");
                assert_ne!(*len, links, "k={k}: {name} is sized by every link");
            }
            let (all, one) = (fixed(&shards), fixed(&serial));
            let spread = (all as f64 / one as f64 - 1.0).abs();
            assert!(
                spread <= 0.02,
                "k={k}: {all} state bytes against {one} on one shard"
            );
        }
        // Flowlet state exists only in flowlet runs, one entry of
        // `flowlet_id` and `last_emit_ns` per sender pool entry.
        let flowlet_state = |cfg: SimConfig| {
            let shards = state(2, cfg);
            let (len, bytes) = shards
                .iter()
                .flatten()
                .filter(|v| v.0 == "flowlet_id" || v.0 == "last_emit_ns")
                .fold((0, 0), |(len, bytes), v| (len + v.1, bytes + v.2));
            (len, bytes, total(&shards, "senders"))
        };
        let (len, bytes, _) = flowlet_state(SimConfig::default());
        assert_eq!((len, bytes), (0, 0));
        let flowlets = SimConfig {
            flowlet_gap_ns: Some(40_000),
            ..SimConfig::default()
        };
        let (len, _, senders) = flowlet_state(flowlets);
        assert_eq!(len, 2 * senders);
    }

    #[test]
    fn same_instant_faults_apply_in_list_order() {
        // A switch goes down and up at one instant: applied in list order
        // it ends up alive (its queues flushed, the first reconvergence
        // superseded), and every flow finishes; the reverse list leaves it
        // down for good.
        let t = DRing::uniform(8, 2, 12).build();
        let flows = workload(&t, 60, 2);
        let flap = FailureSchedule::new(50_000)
            .switch_down(100_000, 3)
            .switch_up(100_000, 3);
        let (r, _, _) = assert_engines_agree(
            &t,
            RoutingScheme::Ecmp,
            SimConfig::default(),
            7,
            &flows,
            Some(&flap),
        );
        assert_eq!(r.unfinished(), 0);
        assert!(r.dropped_packets > 0, "the flap flushed nothing");
        let down = FailureSchedule::new(50_000)
            .switch_up(100_000, 3)
            .switch_down(100_000, 3);
        let (r, _, _) = assert_engines_agree(
            &t,
            RoutingScheme::Ecmp,
            SimConfig::default(),
            7,
            &flows,
            Some(&down),
        );
        assert!(r.unfinished() > 0);
    }

    #[test]
    fn cross_shard_boundary_ordering_is_deterministic() {
        // Senders in every shard converge on one destination rack; their
        // packets cross the shard boundary in flight within the same
        // window, so their arrival order at the shared downlink queue is
        // decided purely by the content rank. Any execution-order leakage
        // shows up as differing drops/FCTs.
        let t = DRing::uniform(8, 2, 12).build();
        let ns = t.num_servers();
        let flows: Vec<(u32, u32, u64, Ns)> = (1..ns).map(|s| (s, 0, 30_000u64, 0)).collect();
        let reference = run_serial(
            &t,
            RoutingScheme::Ecmp,
            SimConfig::default(),
            9,
            &flows,
            None,
        );
        assert!(
            reference.0.dropped_packets > 0,
            "incast should drop packets"
        );
        for shards in [2, 4, 8] {
            let got = run_sharded(&t, SimConfig::default(), 9, shards, &flows, None);
            assert_eq!(
                outcome(got),
                reference,
                "boundary ordering diverged at {shards} shards"
            );
        }
        // And repeated parallel runs are stable, event count, pkt-hops,
        // per-link bytes and drain time included.
        let a = run_sharded(&t, SimConfig::default(), 9, 4, &flows, None);
        let b = run_sharded(&t, SimConfig::default(), 9, 4, &flows, None);
        assert_eq!(a, b);
    }

    #[test]
    fn flows_admitted_between_advances_run_alike() {
        // A flow admitted after the shards exist gets its state in its
        // owners' shards then; the run equals one with every flow
        // admitted up front, at every shard count.
        let t = DRing::uniform(8, 2, 12).build();
        let mut flows = workload(&t, 60, 11);
        for f in &mut flows[30..] {
            f.3 += 60_000;
        }
        let reference = run_serial(
            &t,
            RoutingScheme::Ecmp,
            SimConfig::default(),
            7,
            &flows,
            None,
        );
        for k in [1, 2, 3] {
            let mut sim = sharded(
                &t,
                RoutingScheme::Ecmp,
                SimConfig::default(),
                7,
                k,
                &flows[..30],
                None,
            );
            sim.run_until(60_000);
            for &(s, d, b, at) in &flows[30..] {
                sim.add_flow(s, d, b, at).unwrap();
            }
            let r = sim.run();
            assert_eq!(
                (r, sim.pkt_hops(), sim.switch_link_tx_bytes()),
                reference,
                "k={k}"
            );
        }
    }

    #[test]
    fn residuals_between_advances_apply_alike() {
        // The hybrid hooks at any shard count: residuals installed before
        // the first advance and between `run_until` slices slow the same
        // packets, and utilization is read the same way, as on one shard.
        let t = DRing::uniform(8, 2, 12).build();
        let flows = workload(&t, 60, 12);
        let run = |k: u32| {
            let mut sim = sharded(
                &t,
                RoutingScheme::Ecmp,
                SimConfig::default(),
                7,
                k,
                &flows,
                None,
            );
            let n = sim.num_dir_links();
            sim.set_link_residuals(
                &(0..n)
                    .map(|l| if l % 3 == 0 { 0.5 } else { 1.0 })
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            sim.run_until(40_000);
            sim.set_link_residuals(
                &(0..n)
                    .map(|l| if l % 5 == 0 { 0.25 } else { 0.9 })
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            sim.run_until(90_000);
            sim.set_link_residuals(&vec![1.0; n]).unwrap();
            let r = sim.run();
            (
                r,
                sim.pkt_hops(),
                sim.switch_link_tx_bytes(),
                sim.mean_switch_link_utilization().to_bits(),
            )
        };
        let serial = run(1);
        let (plain, _, _) = run_serial(
            &t,
            RoutingScheme::Ecmp,
            SimConfig::default(),
            7,
            &flows,
            None,
        );
        assert_ne!(
            serial.0.fcts(),
            plain.fcts(),
            "the residuals slowed nothing"
        );
        for k in [2, 3] {
            assert_eq!(run(k), serial, "k={k}");
        }
    }

    #[test]
    fn engine_choice_heuristic() {
        // Small anything: serial.
        assert_eq!(choose_engine(24, 200, 50_000, 8), 1);
        // Big events, small fabric: still serial.
        assert_eq!(choose_engine(24, 20_000, 30_000_000, 8), 1);
        // Big events, big fabric, one thread: serial (never a measured-
        // slower parallel run on a serial host).
        assert_eq!(choose_engine(102, 20_000, 30_000_000, 1), 1);
        // Big everything: sharded, capped by threads.
        assert_eq!(choose_engine(102, 20_000, 30_000_000, 4), 4);
        assert_eq!(choose_engine(600, 20_000, 30_000_000, 64), 16);
    }

    #[test]
    fn engine_choice_on_the_benchmark_shapes() {
        // `a2a_production`: the production DRing (102 switches), ~10⁵
        // flows, ~43 M estimated events — two shards on a 2-thread host.
        assert_eq!(choose_engine(102, 100_000, 43_400_000, 2), 2);
        // A paper-scale all-to-all of 25 000 flows shards; one of 6 000
        // (~2.6 M estimated events) does not.
        assert_eq!(choose_engine(80, 25_000, 10_700_000, 2), 2);
        assert_eq!(choose_engine(80, 6_000, 2_600_000, 2), 1);
        // `pfc_incast`: the paper DRing (80 switches), 158 flows, ~42 M
        // estimated lossless events — windows of ~56 events, so serial.
        assert_eq!(choose_engine(80, 158, 42_000_000, 2), 1);
        assert_eq!(choose_engine(80, 158, 42_000_000, 64), 1);
        // Anything at one thread: serial.
        for (sw, flows, est) in [
            (102, 100_000, 43_400_000),
            (80, 158, 42_000_000),
            (600, 10_000_000, u64::MAX),
        ] {
            assert_eq!(choose_engine(sw, flows, est, 1), 1);
        }
    }

    #[test]
    fn estimate_scales_with_bytes() {
        assert_eq!(estimate_events([0u64; 0], 1500, false), 0);
        let small = estimate_events([10_000u64], 1500, false);
        let big = estimate_events([10_000_000u64], 1500, false);
        assert!(small < 1_000 && big > 100_000, "small={small} big={big}");
    }

    #[test]
    fn detailed_estimate_folds_in_control_plane() {
        // A lossless run pays the pause/resume + un-elided TxDone
        // surcharge on top of the data-plane estimate.
        let base = estimate_events([100_000u64; 4], 1500, false);
        assert_eq!(
            estimate_events([100_000u64; 4], 1500, true),
            base + base / 4
        );
        // Saturation stays saturation.
        assert_eq!(estimate_events([u64::MAX; 3], 1, true), u64::MAX);
    }

    #[test]
    fn sharded_pfc_gbn_matches_serial_engine() {
        // Lossless go-back-N under an incast whose pause tree climbs from
        // the victim's ToR into the mesh: pause frames cross shard
        // boundaries, and the per-ingress accounts live with the shard of
        // the node downstream of each ingress. Every shard count must
        // reproduce the serial run exactly — pause/resume counters and
        // backlog included — with and without a failure schedule, and
        // nothing may be tail-dropped.
        let t = DRing::uniform(8, 2, 12).build();
        let cfg = SimConfig {
            transport: Transport::GoBackN,
            pfc: Some(PfcConfig {
                xoff_bytes: 20_000,
                xon_bytes: 8_000,
            }),
            // Cyclic buffer dependencies can deadlock PFC on a mesh.
            max_time_ns: 50_000_000,
            ..SimConfig::default()
        };
        let mut flows: Vec<(u32, u32, u64, Ns)> = (1..t.num_switches())
            .map(|sw| (t.servers_on(sw).start, 0, 150_000, 0))
            .collect();
        flows.extend(workload(&t, 40, 8));
        let schedule = FailureSchedule::new(100_000)
            .link_down(150_000, 0)
            .switch_down(300_000, 5)
            .link_up(900_000, 0)
            .switch_up(1_200_000, 5);
        for sched in [None, Some(&schedule)] {
            let (r, _, _) = assert_engines_agree(&t, RoutingScheme::Ecmp, cfg, 7, &flows, sched);
            assert_eq!(r.congestion_drops, 0, "PFC tail-dropped a packet");
            assert!(r.pause_frames > 0 && r.resume_frames > 0, "{r:?}");
            assert!(r.links_ever_paused > 1, "pause tree stayed at the victim");
            assert!(r.fcts().len() > flows.len() / 2, "too few flows finished");
        }
    }

    #[test]
    fn shard_window_stops_within_lookahead_of_an_applied_fault() {
        // A fault applied at a barrier can flush queues and free pause
        // frames stamped from the fault's own time, so the window it opens
        // may not run past that time plus the lookahead, however far away
        // the next pending event is — and a fault applied when nothing is
        // pending still gets a round to reach the shards.
        let t = LeafSpine::new(4, 2).build();
        let fs = plane(&t, RoutingScheme::Ecmp);
        let cfg = SimConfig::default();
        let (plant, _) = Plant::build(&t, &fs, &cfg, 1, None);
        for (next_event, lbts) in [(20_000, 5_600), (u64::MAX, 5_600)] {
            let schedule = FailureSchedule::new(1_000_000).link_down(5_000, 0);
            let mut agenda =
                Agenda::new(&t, fs.clone(), schedule, &plant, fs.routers(), &cfg).unwrap();
            let mut coord = Coordinator {
                agenda: Some(&mut agenda),
                lookahead: 600,
                deadline: u64::MAX,
            };
            let sync = SyncShared::new(1);
            sync.next_time[0].store(next_event, Ordering::Relaxed);
            let plan = coord.step(&sync);
            assert!(!plan.quit && !plan.transitions.is_empty());
            assert_eq!(plan.lbts, lbts, "next event at {next_event}");
        }
    }

    /// Runs `n` threads through `rounds` rounds of a barrier polling
    /// `spin` times. Each round, every thread counts itself in before the
    /// barrier; the leader must see all `n` arrivals, and on release every
    /// thread must see the leader's action and no thread two rounds ahead.
    /// The threads are detached, so a lost wake-up fails the watchdog's
    /// timeout instead of hanging the test.
    fn exercise_barrier(n: u32, spin: u32, rounds: u64) {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let barrier = Arc::new(SpinBarrier::new(n, spin));
        let arrived = Arc::new(AtomicU64::new(0));
        let led = Arc::new(AtomicU64::new(0));
        let (done, finished) = channel();
        let workers: Vec<_> = (0..n)
            .map(|_| {
                let (barrier, arrived, led, done) =
                    (barrier.clone(), arrived.clone(), led.clone(), done.clone());
                std::thread::spawn(move || {
                    let _poison = PoisonOnPanic(&barrier);
                    let n = n as u64;
                    for r in 0..rounds {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        let released = barrier.wait(|| {
                            assert_eq!(
                                arrived.load(Ordering::SeqCst),
                                n * (r + 1),
                                "leader ran early"
                            );
                            led.fetch_add(1, Ordering::SeqCst);
                        });
                        assert!(released, "poisoned");
                        assert_eq!(
                            led.load(Ordering::SeqCst),
                            r + 1,
                            "released before the leader acted"
                        );
                        let seen = arrived.load(Ordering::SeqCst);
                        assert!(
                            (n * (r + 1)..n * (r + 2)).contains(&seen),
                            "round {r}: {seen} arrivals"
                        );
                    }
                    done.send(()).expect("watchdog gone");
                })
            })
            .collect();
        drop(done);
        for _ in 0..n {
            finished
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|e| {
                    panic!("n={n} spin={spin}: barrier stuck or a thread failed ({e})")
                });
        }
        for w in workers {
            w.join().expect("barrier thread panicked");
        }
        assert_eq!(led.load(Ordering::SeqCst), rounds);
    }

    #[test]
    fn spin_barrier_blocking_survives_many_rounds() {
        // Blocking at once is what every wait does when shards outnumber
        // cores; 8 threads oversubscribe a small host.
        for n in [2, 3, 8] {
            exercise_barrier(n, 0, 2_000);
        }
    }

    #[test]
    fn spin_barrier_spinning_survives_many_rounds() {
        // Spinning waiters fall back to blocking past their budget,
        // oversubscribed included.
        for n in [2, 3, 8] {
            exercise_barrier(n, SPIN_POLLS, 300);
        }
        exercise_barrier(2, 1, 2_000);
    }

    #[test]
    fn poisoned_barrier_releases_its_waiters() {
        let barrier = SpinBarrier::new(3, 0);
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..2).map(|_| s.spawn(|| barrier.wait(|| {}))).collect();
            barrier.poison();
            for w in waiters {
                assert!(
                    !w.join().expect("waiter panicked"),
                    "a poisoned wait returned true"
                );
            }
        });
    }

    /// FNV-1a over little-endian words.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Digest of a run's FCTs, drops, delivered bytes, pkt-hops, per-link
    /// tx bytes and retransmit and timeout counters.
    fn golden_digest(t: &Totals) -> u64 {
        let r = &t.report;
        let mut w: Vec<u64> = r
            .flows
            .iter()
            .map(|f| f.fct_ns.unwrap_or(u64::MAX))
            .collect();
        w.extend([r.dropped_packets, r.delivered_bytes, t.pkt_hops]);
        w.extend(t.tx_bytes.iter().copied());
        w.extend(
            r.flows
                .iter()
                .map(|f| (f.retransmits as u64) << 32 | f.timeouts as u64),
        );
        fnv(w)
    }

    #[test]
    fn sharded_single_domain_golden() {
        // sharded(k) == serial cannot catch a change that moves both
        // alike, so the serial loop — one shard — is pinned here, and two
        // shards with it, so a failure names which of the two moved. The
        // values come from a single-domain sharded engine that has since
        // folded into the serial loop. The digest, drops, delivered bytes
        // and pkt-hops were recorded from that engine while it still ran
        // its own copy of the per-packet
        // handlers, before they moved into the shared datapath core and
        // before the serial engine adopted the content rank. The event
        // counts on the fast datapath are the serial engine's from that
        // time, less the failure-schedule actions it then counted as
        // events (twelve in the failure case), since shards now schedule
        // on the serial engine's sink: RTO wheel and terminal-TxDone
        // elision included. The last column is the drain time — the last
        // event processed — which the wheel moved on the fast datapath
        // (cancelled timers no longer fire as no-ops); the reference
        // datapath keeps every stale timer and its old drain time.
        let ls = LeafSpine::new(4, 2).build();
        let dr = DRing::uniform(8, 2, 12).build();
        let failures = FailureSchedule::new(200_000)
            .link_down(60_000, 0)
            .link_down(90_000, 5)
            .switch_down(150_000, 3)
            .link_up(400_000, 0)
            .switch_up(500_000, 3)
            .link_up(520_000, 5);
        let dctcp = SimConfig {
            transport: Transport::Dctcp,
            flowlet_gap_ns: Some(40_000),
            ..SimConfig::default()
        };
        let reference = SimConfig {
            datapath: Datapath::Reference,
            ..SimConfig::default()
        };
        // (name, topology, config, flows, schedule, digest, drops,
        // delivered bytes, pkt-hops, events, drain ns)
        type Golden<'a> = (
            &'a str,
            &'a Topology,
            SimConfig,
            Vec<(u32, u32, u64, Ns)>,
            Option<&'a FailureSchedule>,
            [u64; 6],
        );
        let cases: [Golden; 5] = [
            (
                "leafspine newreno",
                &ls,
                SimConfig::default(),
                workload(&ls, 40, 1),
                None,
                [0x41af_ad99_6507_26be, 0, 2_695_243, 13_596, 22_443, 347_565],
            ),
            (
                "dring newreno",
                &dr,
                SimConfig::default(),
                workload(&dr, 60, 2),
                None,
                [0xf152_9607_0bd7_b967, 0, 4_219_781, 19_846, 31_503, 262_981],
            ),
            (
                "dring dctcp + flowlets",
                &dr,
                dctcp,
                workload(&dr, 50, 3),
                None,
                [0x5dfc_874d_2191_4fbf, 0, 3_369_516, 15_660, 25_044, 285_947],
            ),
            (
                "dring failure schedule",
                &dr,
                SimConfig::default(),
                workload(&dr, 50, 4),
                Some(&failures),
                [
                    0x2adb_d5b2_ae4f_2a3c,
                    13,
                    2_625_269,
                    11_527,
                    18_022,
                    1_214_821,
                ],
            ),
            (
                "dring reference datapath",
                &dr,
                reference,
                workload(&dr, 30, 5),
                None,
                [
                    0xbaba_93bf_54f9_a078,
                    0,
                    1_955_489,
                    8_578,
                    18_502,
                    1_215_066,
                ],
            ),
        ];
        for (name, topo, cfg, flows, sched, want) in cases {
            let pin = |t: &Totals| {
                let r = &t.report;
                [
                    golden_digest(t),
                    r.dropped_packets,
                    r.delivered_bytes,
                    t.pkt_hops,
                    r.events,
                    t.drain_ns,
                ]
            };
            for k in [1, 2] {
                let got = pin(&run_sharded(topo, cfg, 7, k, &flows, sched));
                assert_eq!(got, want, "{name}: sharded({k}) moved");
            }
        }
    }
}
