//! The per-packet datapath, written once for both engines.
//!
//! [`Core`] holds every piece of state a packet, a flow or a pause frame
//! touches — link queues, TCP endpoints, PFC accounts, the live
//! forwarding plane and the fabric's alive map — and every handler that
//! moves it: [`Core::handle`] for the events, `offer`/`on_arrive`/
//! `forward`/`deliver` for a packet's path, `apply_tcp_output` for a
//! sender's decisions, `pfc_charge`/`pfc_discharge` for lossless
//! backpressure and [`Core::set_link_alive`] for fault transitions.
//!
//! Every event is keyed by `(time, content rank)`: [`rank_of`] packs the
//! event's class, entity and detail into 64 bits that sender and receiver
//! can both compute, so the key depends only on what the event is, never
//! on when or where it was scheduled. That one tie-break is what makes
//! every shard count — the serial loop at one shard, the window protocol
//! at more — produce the same run bit for bit.
//!
//! The one thing that differs between shard counts is the [`Sink`] the
//! core schedules into, a type parameter monomorphized per loop:
//!
//! * the serial loop (one shard) pushes into its event queue and RTO
//!   wheel (`engine::SerialSink`);
//! * each shard of the window protocol (`shard::ShardSink`) pushes the
//!   events it owns into a `SerialSink` of its own, so its RTOs ride the
//!   same wheel and its terminal `TxDone`s are elided alike, and routes
//!   events owned by another shard to its outbox.
//!
//! The sink also numbers the state a core holds. A core's per-flow
//! tables cover only the senders and receivers its shard owns, at
//! *slots* the packets carry: data names its receiver's slot, an ACK its
//! sender's, and each endpoint keeps its peer's slot in a table of the
//! sink's. A slot is a flow's admission index and never changes; it maps
//! to an entry of a [`Pool`] that holds the flow's TCP state only while
//! the flow runs — a sender from its `FlowStart` to its completion, a
//! receiver from its first data to the last in-order byte — after which a
//! compact [`Outcome`] is all that is left. A core's per-link vectors
//! cover only the links whose tail its shard owns. What a link's *head*
//! keeps — its PFC ingress account and its cut time — sits at the slot of
//! the reverse link, whose tail is the same node. Events, ranks, the FIB
//! cache, residuals and the 1-byte alive map keep global link and flow
//! ids. On one shard a slot is the flow or link id itself, so the serial
//! loop indexes as it always did and keeps no peer table.

use crate::engine::SimError;
use crate::link::{LinkQueue, Offer};
use crate::packet::{Packet, INGRESS_NONE};
use crate::tcp::{GbnSignal, TcpOutput, TcpReceiver, TcpSender};
use crate::types::{Datapath, DirLinkId, FlowId, FlowRecord, Ns, SimConfig, SimReport, Transport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spineless_graph::{EdgeId, NodeId};
use spineless_routing::{FibCache, Forwarding, ForwardingState};
use spineless_topo::Topology;
use std::sync::Arc;

/// XOR'd into the ECMP hash input of ACKs so the reverse stream rolls its
/// own path, independent of the data stream's.
pub(crate) const ACK_SALT: u64 = 0xA5A5_5A5A_DEAD_BEEF;

/// Wire size of a PFC pause/resume frame (the 802.3x/802.1Qbb minimum
/// Ethernet frame). Pause frames are not queued packets — they preempt the
/// reverse wire — so this only sets their serialization latency.
pub(crate) const PAUSE_FRAME_BYTES: u32 = 64;

/// Sentinel for [`Core`]'s per-link `cut_at`: the link has never been cut.
const NEVER_CUT: Ns = Ns::MAX;

/// Everything that can happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ev {
    /// A flow's start time arrived; its sender sits at slot `.1`. Starts
    /// never enter an event queue: the sink keeps them in a list of their
    /// own and merges it into the event stream by key.
    FlowStart(FlowId, u32),
    /// A packet finishes propagation and arrives at the link's head.
    Arrive(DirLinkId, Packet),
    /// A link finishes serializing its current packet.
    TxDone(DirLinkId),
    /// A TCP retransmission timer of generation `.2` fires for the flow
    /// whose sender sits at slot `.1`.
    Rto(FlowId, u32, u64),
    /// PFC: frame number `.1` for ingress link `.0` reaches that link's
    /// transmitter, after serializing on — and propagating over — its
    /// reverse direction. Frames per ingress strictly alternate starting
    /// with a pause, so odd numbers pause and even numbers resume.
    Pfc(DirLinkId, u64),
}

/// Event classes of the content rank, in tie-break order at equal time.
pub(crate) const CLASS_FLOW_START: u64 = 0;
const CLASS_ARRIVE: u64 = 1;
const CLASS_TXDONE: u64 = 2;
pub(crate) const CLASS_RTO: u64 = 3;
const CLASS_PFC: u64 = 4;
const DETAIL_BITS: u32 = 29;

/// Packs the content rank: 3 class bits, 32 entity bits (flow or directed
/// link), 29 detail bits (RTO timer generation or PFC frame number).
/// Unique per event at a given time:
/// per-link wire events are strictly monotone in time (serialization
/// takes at least 1 ns and the wire serializes), a flow re-arms at most
/// one timer per generation, and the frames of one ingress are numbered
/// in emission order — so a resume and a pause emitted for the same link
/// at the same instant keep that order.
pub(crate) fn rank(class: u64, entity: u32, detail: u64) -> u64 {
    debug_assert!(
        detail < (1 << DETAIL_BITS),
        "rank detail overflows its field"
    );
    (class << 61) | ((entity as u64) << DETAIL_BITS) | (detail & ((1 << DETAIL_BITS) - 1))
}

/// The entity (flow or directed link) a content rank names.
pub(crate) fn entity_of(rank: u64) -> u32 {
    (rank >> DETAIL_BITS) as u32
}

/// The content rank of `ev`. Slots do not enter it: the rank of an event
/// is the same at every shard count.
pub(crate) fn rank_of(ev: &Ev) -> u64 {
    match *ev {
        Ev::FlowStart(f, _) => rank(CLASS_FLOW_START, f, 0),
        Ev::Arrive(link, _) => rank(CLASS_ARRIVE, link, 0),
        Ev::TxDone(link) => rank(CLASS_TXDONE, link, 0),
        Ev::Rto(f, _, gen) => rank(CLASS_RTO, f, gen),
        Ev::Pfc(link, frame) => rank(CLASS_PFC, link, frame),
    }
}

/// One admitted flow.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlowSpec {
    pub(crate) src: u32,
    pub(crate) dst: u32,
    pub(crate) bytes: u64,
    pub(crate) start_ns: Ns,
    /// ECMP hash input; derives from ids so admitting flows in a different
    /// order does not change an existing flow's path.
    pub(crate) hash: u64,
}

impl FlowSpec {
    /// The record of flow `id`, whose sender's outcome is `o`.
    pub(crate) fn record(&self, id: FlowId, o: Outcome) -> FlowRecord {
        FlowRecord {
            id,
            src: self.src,
            dst: self.dst,
            bytes: self.bytes,
            start_ns: self.start_ns,
            fct_ns: (o.fct_ns != NOT_DONE).then_some(o.fct_ns),
            retransmits: o.retransmits,
            timeouts: o.timeouts,
        }
    }
}

/// What a flow's sender leaves behind: written when the flow completes,
/// read from the live sender until then.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Outcome {
    /// Flow completion time, or [`NOT_DONE`].
    fct_ns: Ns,
    retransmits: u32,
    timeouts: u32,
}

/// [`Outcome::fct_ns`] of a flow that has not completed.
const NOT_DONE: Ns = Ns::MAX;

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            fct_ns: NOT_DONE,
            retransmits: 0,
            timeouts: 0,
        }
    }
}

/// A slot's pool entry before its flow's state exists.
const UNSTARTED: u32 = u32::MAX;
/// A slot's pool entry after its flow's state was returned.
const RETIRED: u32 = u32::MAX - 1;

/// Per-flow state that exists only while its flow runs: a flow takes an
/// entry — a returned one first — and gives it back when it is done, so
/// the pool is as large as the most flows ever live at once.
#[derive(Debug, Clone)]
pub(crate) struct Pool<T> {
    entries: Vec<T>,
    /// Returned entries, reused last-in first-out.
    free: Vec<u32>,
    /// Entries handed out and given back over the run.
    taken: u64,
    returned: u64,
}

impl<T> Pool<T> {
    fn new() -> Pool<T> {
        Pool {
            entries: Vec::new(),
            free: Vec::new(),
            taken: 0,
            returned: 0,
        }
    }

    /// Stores `v` in a free entry and returns its index.
    fn take(&mut self, v: T) -> u32 {
        self.taken += 1;
        match self.free.pop() {
            Some(e) => {
                self.entries[e as usize] = v;
                e
            }
            None => {
                self.entries.push(v);
                self.entries.len() as u32 - 1
            }
        }
    }

    /// Returns entry `e`, whose flow is done with it.
    fn give_back(&mut self, e: u32) {
        self.returned += 1;
        self.free.push(e);
    }

    /// Entries in use.
    fn live(&self) -> usize {
        self.entries.len() - self.free.len()
    }
}

impl<T> std::ops::Index<u32> for Pool<T> {
    type Output = T;
    #[inline]
    fn index(&self, e: u32) -> &T {
        &self.entries[e as usize]
    }
}

impl<T> std::ops::IndexMut<u32> for Pool<T> {
    #[inline]
    fn index_mut(&mut self, e: u32) -> &mut T {
        &mut self.entries[e as usize]
    }
}

/// Entry `e` of `at`, or [`UNSTARTED`] past its end.
#[inline]
fn entry(at: &[u32], slot: u32) -> u32 {
    at.get(slot as usize).copied().unwrap_or(UNSTARTED)
}

/// Sets `at[slot]`, first growing `at` to the `admitted` slots when it is
/// too short: a per-slot table is sized at its first use, to the slots
/// admitted by then.
fn set_slot<T: Clone>(at: &mut Vec<T>, slot: u32, v: T, admitted: u32, fill: T) {
    let i = slot as usize;
    if i >= at.len() {
        debug_assert!(slot < admitted, "slot {slot} was never admitted");
        at.resize(admitted as usize, fill);
    }
    at[i] = v;
}

/// The fabric and workload facts no event changes, shared read-only by
/// every shard.
#[derive(Debug, Clone, Default)]
pub(crate) struct Plant {
    /// Switch of each server.
    pub(crate) server_switch: Vec<NodeId>,
    /// Physical edge endpoints, for direction resolution.
    pub(crate) edge_ends: Vec<(NodeId, NodeId)>,
    /// Per-switch ECMP salt, drawn from the seed.
    pub(crate) switch_salt: Vec<u64>,
    /// Admitted flows, indexed by [`FlowId`].
    pub(crate) specs: Vec<FlowSpec>,
}

impl Plant {
    /// The geometry of `topo`, salted from `seed`, plus the FIB hot-cache
    /// the fast datapath forwards with: `cache` when given, else one
    /// built from `fs` (`None` on the reference datapath, or when `fs`
    /// exposes none).
    ///
    /// # Panics
    ///
    /// Panics if `fs` was built for another topology, or if the PFC
    /// thresholds have no hysteresis.
    pub(crate) fn build(
        topo: &Topology,
        fs: &impl Forwarding,
        cfg: &SimConfig,
        seed: u64,
        cache: Option<Arc<FibCache>>,
    ) -> (Plant, Option<Arc<FibCache>>) {
        assert_eq!(
            fs.routers(),
            topo.num_switches(),
            "forwarding plane built for a different topology"
        );
        if let Some(p) = cfg.pfc {
            assert!(
                p.xon_bytes < p.xoff_bytes,
                "PFC thresholds need hysteresis: xon {} >= xoff {}",
                p.xon_bytes,
                p.xoff_bytes
            );
        }
        let mut server_switch = vec![0u32; topo.num_servers() as usize];
        for sw in 0..topo.num_switches() {
            for s in topo.servers_on(sw) {
                server_switch[s as usize] = sw;
            }
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let plant = Plant {
            server_switch,
            edge_ends: topo.graph.edges().to_vec(),
            switch_salt: (0..topo.num_switches()).map(|_| rng.gen()).collect(),
            specs: Vec::new(),
        };
        let hot = match cfg.datapath {
            Datapath::Fast => cache.or_else(|| fs.fib_cache(&plant.edge_ends).map(Arc::new)),
            Datapath::Reference => None,
        };
        (plant, hot)
    }

    /// Validates and admits a flow over forwarding plane `fs`.
    pub(crate) fn add_flow(
        &mut self,
        fs: &impl Forwarding,
        src: u32,
        dst: u32,
        bytes: u64,
        start_ns: Ns,
    ) -> Result<FlowId, SimError> {
        self.check_flow(fs, src, dst, bytes)?;
        let id = self.specs.len() as FlowId;
        let hash =
            mix(0x5851_F42D_4C95_7F2D ^ ((src as u64) << 32 | dst as u64) ^ ((id as u64) << 17));
        self.specs.push(FlowSpec {
            src,
            dst,
            bytes,
            start_ns,
            hash,
        });
        Ok(id)
    }

    /// The admission rule for every flow, packet or fluid: both servers
    /// exist, the flow carries bytes, and `fs` connects their racks.
    pub(crate) fn check_flow(
        &self,
        fs: &impl Forwarding,
        src: u32,
        dst: u32,
        bytes: u64,
    ) -> Result<(), SimError> {
        let ns = self.server_switch.len() as u32;
        if src >= ns {
            return Err(SimError::BadServer(src));
        }
        if dst >= ns {
            return Err(SimError::BadServer(dst));
        }
        if bytes == 0 {
            return Err(SimError::EmptyFlow);
        }
        let (ssw, dsw) = (
            self.server_switch[src as usize],
            self.server_switch[dst as usize],
        );
        if ssw != dsw && !fs.reachable(ssw, dsw) {
            return Err(SimError::Unreachable { src, dst });
        }
        Ok(())
    }

    /// First server-uplink link id (= 2 × switch edges).
    pub(crate) fn base_up(&self) -> u32 {
        2 * self.edge_ends.len() as u32
    }

    /// First server-downlink link id.
    pub(crate) fn base_down(&self) -> u32 {
        self.base_up() + self.server_switch.len() as u32
    }

    /// Directed links: switch links, then uplinks, then downlinks.
    pub(crate) fn num_links(&self) -> usize {
        (self.base_down() + self.server_switch.len() as u32) as usize
    }
}

/// A reconverged forwarding plane: the intact VRF graph with the dead
/// cables' arcs masked out and fresh labels (`ForwardingState::masked`),
/// so its vnodes, arcs and edges carry the fabric's own ids — packets in
/// flight keep valid vnodes and hops name the plant's link queues.
pub(crate) struct SwapPlane {
    pub(crate) fs: ForwardingState,
    /// The plane's FIB hot-cache (fast datapath).
    pub(crate) hot: Option<Arc<FibCache>>,
}

impl SwapPlane {
    /// The plane's next hop as `(next vnode, edge id)`, or `None` when
    /// the degraded plane has no route at this vnode. Same rule as
    /// `Forwarding::next_hop`: the `hash % n`-th of the `n` next hops.
    fn try_next_hop(&self, vnode: NodeId, dst: NodeId, hash: u64) -> Option<(NodeId, EdgeId)> {
        self.fs.pick_hop(vnode, dst, |n| (hash % n as u64) as usize)
    }
}

/// Where the [`Core`] schedules what it decides, and how it numbers the
/// state it owns: the only per-engine part of the datapath.
pub(crate) trait Sink {
    /// Schedules `ev` at `t` under the key `(t, rank_of(&ev))`.
    fn push(&mut self, t: Ns, ev: Ev);
    /// (Re-)arms the retransmission timer of `flow`, whose sender sits at
    /// `slot`: generation `gen` fires at `t`, and every earlier generation
    /// is stale.
    fn arm_rto(&mut self, t: Ns, flow: FlowId, slot: u32, gen: u64);
    /// The flow whose sender sits at `slot` completed without re-arming:
    /// its pending timer is stale.
    fn disarm_rto(&mut self, slot: u32);
    /// The receiver slot of the flow whose sender sits at `slot`.
    fn receiver_of(&self, slot: u32) -> u32;
    /// The sender slot of the flow whose receiver sits at `slot`.
    fn sender_of(&self, slot: u32) -> u32;
    /// Where directed link `l`'s tail state (queue, wire) sits in the
    /// core's per-link vectors.
    fn tail_slot(&self, l: DirLinkId) -> usize;
    /// Where `l`'s head state (PFC ingress account, cut time) sits.
    fn head_slot(&self, l: DirLinkId) -> usize;
    /// Whether this core owns `l`'s tail.
    fn owns_tail(&self, l: DirLinkId) -> bool;
    /// Whether this core owns `l`'s head.
    fn owns_head(&self, l: DirLinkId) -> bool;
    /// Admitted flows of this core's senders that have not started.
    fn pending_starts(&self) -> usize;
    /// Sender and receiver slots admitted so far.
    fn slots(&self) -> [u32; 2];
    /// The per-flow tables the sink keeps (see [`Core::state_vecs`]).
    #[cfg(test)]
    fn state_vecs(&self) -> Vec<StateVec>;
}

/// A vector of datapath state: `(name, length, bytes)`.
#[cfg(test)]
pub(crate) type StateVec = (&'static str, usize, usize);

/// `v` as a [`StateVec`] named `name`, counting its capacity.
#[cfg(test)]
pub(crate) fn state_vec<T>(name: &'static str, v: &Vec<T>) -> StateVec {
    (name, v.len(), v.capacity() * std::mem::size_of::<T>())
}

/// The datapath state and handlers; see the module docs.
pub(crate) struct Core<F, S> {
    pub(crate) sink: S,
    pub(crate) cfg: SimConfig,
    pub(crate) fs: F,
    pub(crate) plant: Arc<Plant>,
    /// First server-uplink link id (= 2 × switch edges).
    pub(crate) base_up: u32,
    /// First server-downlink link id.
    pub(crate) base_down: u32,
    pub(crate) queues: Vec<LinkQueue>,
    pub(crate) now: Ns,
    /// Content rank of the event being processed; with `now`, the pop
    /// point elided terminal `TxDone`s are lazily resolved against.
    key: u64,
    /// Time of the last event that did any work (every event but a stale
    /// RTO), for [`run_end`].
    pub(crate) last_live: Ns,
    /// Packet-link offers processed (accepted or dropped) — identical
    /// across datapaths, unlike event counts, so it is the per-packet work
    /// unit datapath throughput is measured in.
    pub(crate) pkt_hops: u64,
    pub(crate) delivered_bytes: u64,
    /// Packets dropped because the active plane had no route at their
    /// vnode — possible only after a failure disconnects part of the
    /// fabric.
    pub(crate) no_route_drops: u64,
    /// Packets lost on a cut wire, counted where they would have arrived
    /// (the link's queue lives with its tail).
    wire_drops: u64,

    // ---- per-flow state ----
    /// Per sender slot: the flow's entry in `senders`, [`UNSTARTED`] or
    /// [`RETIRED`]; slots past the end have not started.
    sender_at: Vec<u32>,
    /// Per sender slot: the flow's outcome, written at its completion;
    /// slots past the end have none yet.
    outcomes: Vec<Outcome>,
    /// Per receiver slot: the flow's entry in `receivers`, [`UNSTARTED`]
    /// or [`RETIRED`].
    receiver_at: Vec<u32>,
    senders: Pool<TcpSender>,
    receivers: Pool<TcpReceiver>,
    /// Flowlet tracking per `senders` entry; empty unless
    /// `cfg.flowlet_gap_ns` is set.
    flowlet_id: Vec<u32>,
    last_emit_ns: Vec<Ns>,
    /// In-order bytes of the retired receivers.
    retired_acked: u64,
    /// Data bytes that reached the retired receivers, duplicates that
    /// arrived after their retirement included.
    retired_received: u64,
    /// Work that reached retired state: `[data, ACKs, live-looking RTOs]`.
    #[cfg(test)]
    pub(crate) retired_hits: [u64; 3],
    /// `(time, flow)` of every flow start, in processing order.
    #[cfg(test)]
    pub(crate) start_log: Vec<(Ns, FlowId)>,
    /// Reused TCP output buffer: the steady-state loop performs no
    /// per-event allocation.
    out_scratch: TcpOutput,

    // ---- forwarding ----
    /// Direct-indexed FIB replica of the active plane; `None` walks the
    /// plane per hop (reference datapath, oversized fabrics, or planes
    /// that expose none, e.g. `DualPlane`).
    pub(crate) hot: Option<Arc<FibCache>>,
    /// The pristine hot-cache, restored when a repair swaps the baseline
    /// plane back in.
    base_hot: Option<Arc<FibCache>>,
    /// The reconverged plane currently forwarding; `None` = the baseline
    /// `fs`. Start/delivered/router_of geometry is identical either way
    /// because the vnode space is preserved.
    pub(crate) swap: Option<Arc<SwapPlane>>,
    /// Whether terminal-`TxDone` elision is on (the fast datapath without
    /// PFC): a transmission with nothing queued behind it records its
    /// `TxDone` time instead of pushing the event.
    elide: bool,

    // ---- dynamic failures ----
    /// Per directed link of the whole fabric: `false` while the cable or
    /// an endpoint switch is down. Empty until a failure schedule is
    /// installed. Every core keeps all of it: the RTO guard reads the
    /// links of a destination another shard owns.
    pub(crate) link_alive: Vec<bool>,
    /// Per head slot: time of the link's most recent cut ([`NEVER_CUT`]
    /// if never cut). The in-flight loss rule compares it against a
    /// packet's serialization start time.
    cut_at: Vec<Ns>,
    /// Failure-schedule actions not yet applied
    /// ([`Agenda::pending`](crate::failure::Agenda::pending)), the RTO
    /// starvation guard's input.
    pub(crate) ctrl_pending: u32,

    // ---- lossless switching (cfg.pfc) ----
    /// Per head slot of a link (as *ingress*): bytes currently buffered at
    /// the downstream node that arrived over this link — the occupancy
    /// PFC thresholds watch. Empty without PFC, like every PFC vector.
    ingress_bytes: Vec<u64>,
    /// Per head slot of an ingress link: pause/resume frames emitted so
    /// far. Frames strictly alternate starting with a pause, so an odd
    /// count means an XOFF is outstanding and a non-zero count means the
    /// link was paused at least once.
    frames: Vec<u64>,
    /// Per tail slot: `(ingress, size)` of the packet currently being
    /// serialized, so its ingress account can be discharged at `TxDone`
    /// (queued packets carry their own `ingress`; the in-flight one has
    /// left the queue).
    inflight_meta: Vec<(DirLinkId, u32)>,
    pub(crate) pause_frames: u64,
    pub(crate) resume_frames: u64,
    pub(crate) links_ever_paused: u64,
    pub(crate) max_ingress_backlog: u64,

    // ---- hybrid co-simulation ----
    /// Per directed link of the whole fabric: fraction of the link rate
    /// left to the packet plane, one copy shared by every shard (a link's
    /// head reads it too, for the in-flight loss rule). `None` = full
    /// rate on every link, and serialization times are bit-identical to
    /// the plain engine.
    pub(crate) rate_scale: Option<Arc<[f64]>>,
}

impl<F: Forwarding, S: Sink> Core<F, S> {
    /// A core over `plant` forwarding on `fs` (with its hot-cache `hot`,
    /// if any), scheduling into `sink`, holding the state of `links` link
    /// slots.
    pub(crate) fn new(
        cfg: SimConfig,
        fs: F,
        plant: Arc<Plant>,
        hot: Option<Arc<FibCache>>,
        sink: S,
        links: usize,
    ) -> Core<F, S> {
        // Under PFC a terminal `TxDone` is not a no-op — it discharges the
        // in-flight packet from its ingress account and can trigger XON —
        // so elision is off there (the wheel and hot-cache stay on).
        let elide = cfg.datapath == Datapath::Fast && cfg.pfc.is_none();
        let pfc_links = if cfg.pfc.is_some() { links } else { 0 };
        Core {
            sink,
            cfg,
            fs,
            base_up: plant.base_up(),
            base_down: plant.base_down(),
            plant,
            queues: vec![LinkQueue::new(); links],
            now: 0,
            key: 0,
            last_live: 0,
            pkt_hops: 0,
            delivered_bytes: 0,
            no_route_drops: 0,
            wire_drops: 0,
            sender_at: Vec::new(),
            outcomes: Vec::new(),
            receiver_at: Vec::new(),
            senders: Pool::new(),
            receivers: Pool::new(),
            flowlet_id: Vec::new(),
            last_emit_ns: Vec::new(),
            retired_acked: 0,
            retired_received: 0,
            #[cfg(test)]
            retired_hits: [0; 3],
            #[cfg(test)]
            start_log: Vec::new(),
            out_scratch: TcpOutput::default(),
            base_hot: hot.clone(),
            hot,
            swap: None,
            elide,
            link_alive: Vec::new(),
            cut_at: Vec::new(),
            ctrl_pending: 0,
            ingress_bytes: vec![0; pfc_links],
            frames: vec![0; pfc_links],
            inflight_meta: vec![(INGRESS_NONE, 0); pfc_links],
            pause_frames: 0,
            resume_frames: 0,
            links_ever_paused: 0,
            max_ingress_backlog: 0,
            rate_scale: None,
        }
    }

    /// The entry of the live sender at `slot`, if its flow has started
    /// and not completed.
    #[inline]
    fn live_sender(&self, slot: u32) -> Option<u32> {
        let e = entry(&self.sender_at, slot);
        (e < RETIRED).then_some(e)
    }

    /// The outcome of the flow whose sender sits at `slot`: the record
    /// its completion wrote, else what its live sender counted so far.
    pub(crate) fn outcome(&self, slot: u32) -> Outcome {
        match self.live_sender(slot) {
            Some(e) => Outcome {
                retransmits: self.senders[e].retransmits,
                timeouts: self.senders[e].timeouts,
                ..Outcome::default()
            },
            None => self
                .outcomes
                .get(slot as usize)
                .copied()
                .unwrap_or_default(),
        }
    }

    /// Creates the sender of flow `f` at `slot`, when the flow starts.
    #[inline(never)]
    fn start_sender(&mut self, f: FlowId, slot: u32) -> u32 {
        let c = &self.cfg;
        let e = self.senders.take(TcpSender::with_transport(
            f,
            self.plant.specs[f as usize].bytes,
            c.mss_bytes,
            c.initial_cwnd,
            c.min_rto_ns,
            c.transport,
        ));
        if c.flowlet_gap_ns.is_some() {
            let i = e as usize;
            if i == self.flowlet_id.len() {
                self.flowlet_id.push(0);
                self.last_emit_ns.push(0);
            } else {
                self.flowlet_id[i] = 0;
                self.last_emit_ns[i] = 0;
            }
        }
        debug_assert_eq!(
            entry(&self.sender_at, slot),
            UNSTARTED,
            "flow started twice"
        );
        set_slot(
            &mut self.sender_at,
            slot,
            e,
            self.sink.slots()[0],
            UNSTARTED,
        );
        e
    }

    /// The flow whose sender sits at `slot`, in entry `e`, completed
    /// `fct_ns` after its start: keeps its outcome and returns the entry.
    #[inline(never)]
    fn retire_sender(&mut self, slot: u32, e: u32, fct_ns: Ns) {
        let s = &self.senders[e];
        let o = Outcome {
            fct_ns,
            retransmits: s.retransmits,
            timeouts: s.timeouts,
        };
        let admitted = self.sink.slots()[0];
        set_slot(&mut self.outcomes, slot, o, admitted, Outcome::default());
        self.senders.give_back(e);
        self.sender_at[slot as usize] = RETIRED;
    }

    /// Turns on the fault machinery: every link starts alive, never cut.
    pub(crate) fn enable_faults(&mut self) {
        self.link_alive = vec![true; self.plant.num_links()];
        self.cut_at = vec![NEVER_CUT; self.queues.len()];
    }

    /// Whether directed link `l` is currently alive (always `true` when no
    /// failure schedule is installed).
    pub(crate) fn link_is_alive(&self, l: DirLinkId) -> bool {
        self.link_alive.is_empty() || self.link_alive[l as usize]
    }

    /// Every vector this core and its sink keep per flow or per link: the
    /// state a shard count could multiply.
    #[cfg(test)]
    pub(crate) fn state_vecs(&self) -> Vec<StateVec> {
        let mut all = vec![
            state_vec("queues", &self.queues),
            state_vec("sender_at", &self.sender_at),
            state_vec("outcomes", &self.outcomes),
            state_vec("receiver_at", &self.receiver_at),
            state_vec("senders", &self.senders.entries),
            state_vec("free senders", &self.senders.free),
            state_vec("receivers", &self.receivers.entries),
            state_vec("free receivers", &self.receivers.free),
            state_vec("flowlet_id", &self.flowlet_id),
            state_vec("last_emit_ns", &self.last_emit_ns),
            state_vec("link_alive", &self.link_alive),
            state_vec("cut_at", &self.cut_at),
            state_vec("ingress_bytes", &self.ingress_bytes),
            state_vec("frames", &self.frames),
            state_vec("inflight_meta", &self.inflight_meta),
        ];
        all.extend(self.sink.state_vecs());
        all
    }

    /// Bytes of [`state_vecs`](Self::state_vecs).
    #[cfg(test)]
    pub(crate) fn state_bytes(&self) -> usize {
        self.state_vecs().iter().map(|&(_, _, bytes)| bytes).sum()
    }

    /// This core's run counters, for the report.
    pub(crate) fn tally(&self) -> Tally {
        Tally {
            delivered_bytes: self.delivered_bytes,
            queue_drops: self.queues.iter().map(|q| q.drops).sum::<u64>() + self.wire_drops,
            no_route_drops: self.no_route_drops,
            congestion_drops: self.queues.iter().map(|q| q.tail_drops).sum(),
            pause_frames: self.pause_frames,
            resume_frames: self.resume_frames,
            links_ever_paused: self.links_ever_paused,
            max_ingress_backlog: self.max_ingress_backlog,
            last_live: self.last_live,
            open_pauses: self.frames.iter().filter(|&&n| n % 2 == 1).count() as u64,
            acked_bytes: self.retired_acked
                + self.live_receivers().map(|r| r.cum_ack()).sum::<u64>(),
            received_bytes: self.retired_received
                + self.live_receivers().map(|r| r.received_bytes).sum::<u64>(),
            senders: [
                self.senders.taken,
                self.senders.returned,
                self.sender_at.iter().filter(|&&e| e < RETIRED).count() as u64,
            ],
            receivers: [
                self.receivers.taken,
                self.receivers.returned,
                self.live_receivers().count() as u64,
            ],
            pool_live: (self.senders.live() + self.receivers.live()) as u64,
            pending_starts: self.sink.pending_starts() as u64,
            faults: !self.link_alive.is_empty(),
            lossless: self.cfg.pfc.is_some(),
        }
    }

    /// The receivers whose flows are still receiving in-order data.
    fn live_receivers(&self) -> impl Iterator<Item = &TcpReceiver> {
        self.receiver_at
            .iter()
            .filter(|&&e| e < RETIRED)
            .map(|&e| &self.receivers[e])
    }

    /// Executes the event popped at key `(t, key)`. Every event but a
    /// stale RTO (its flow completed or re-armed since) does work and
    /// moves `last_live`.
    #[inline]
    pub(crate) fn handle(&mut self, t: Ns, key: u64, ev: Ev) {
        self.now = t;
        self.key = key;
        match ev {
            Ev::FlowStart(f, slot) => {
                self.last_live = t;
                #[cfg(test)]
                self.start_log.push((t, f));
                let e = self.start_sender(f, slot);
                let mut out = std::mem::take(&mut self.out_scratch);
                self.senders[e].start_into(self.now, &mut out);
                self.apply_tcp_output(f, slot, e, &out);
                self.out_scratch = out;
            }
            Ev::TxDone(link) => {
                self.last_live = t;
                self.on_txdone(link);
            }
            Ev::Arrive(link, pkt) => {
                self.last_live = t;
                self.on_arrive(link, pkt);
            }
            Ev::Rto(f, slot, gen) => {
                // A retired sender's timers are all stale.
                let Some(e) = self.live_sender(slot) else {
                    #[cfg(test)]
                    {
                        self.retired_hits[2] += 1;
                    }
                    return;
                };
                if !self.senders[e].timer_live(gen) {
                    return;
                }
                self.last_live = t;
                if !self.rto_abandoned(f) {
                    let mut out = std::mem::take(&mut self.out_scratch);
                    self.senders[e].on_timer_into(self.now, gen, &mut out);
                    self.apply_tcp_output(f, slot, e, &out);
                    self.out_scratch = out;
                }
            }
            Ev::Pfc(link, frame) => {
                self.last_live = t;
                self.on_pfc(link, frame);
            }
        }
    }

    fn on_txdone(&mut self, link: DirLinkId) {
        let i = self.sink.tail_slot(link);
        if self.cfg.pfc.is_some() {
            // Store-and-forward: the packet that just finished
            // serializing leaves the node's buffer now — discharge it
            // from its ingress account (possibly emitting XON) before the
            // port decides what to do next.
            let (ing, sz) = std::mem::replace(&mut self.inflight_meta[i], (INGRESS_NONE, 0));
            self.pfc_discharge(ing, sz);
        }
        if let Some(pkt) = self.queues[i].tx_done() {
            if self.cfg.pfc.is_some() {
                self.inflight_meta[i] = (pkt.ingress, pkt.size);
            }
            let tx = self.tx_ns_on(link, pkt.size);
            if self.elide && !self.queues[i].has_queued() {
                // Nothing behind the wire: elide the next terminal TxDone,
                // recording its time so the event stream matches the
                // reference.
                self.queues[i].pending_txdone = Some(self.now + tx);
            } else {
                self.sink.push(self.now + tx, Ev::TxDone(link));
            }
            self.sink
                .push(self.now + tx + self.link_delay(link), Ev::Arrive(link, pkt));
        } else {
            // Terminal TxDone: the reference datapath (and any PFC run)
            // processes these; with elision on, one only materializes
            // with an empty queue behind it when a LinkDown flushed the
            // queue after materialization.
            debug_assert!(
                !self.elide || !self.link_alive.is_empty(),
                "fast path popped a terminal TxDone"
            );
        }
    }

    /// A pause (odd `frame`) or resume frame reaches `link`'s transmitter.
    fn on_pfc(&mut self, link: DirLinkId, frame: u64) {
        let i = self.sink.tail_slot(link);
        if frame % 2 == 1 {
            self.queues[i].pause();
        } else if let Some(pkt) = self.queues[i].resume() {
            // The port was idle with packets held: the head starts
            // serializing now (it was charged when it queued; it becomes
            // the in-flight packet until its TxDone).
            self.inflight_meta[i] = (pkt.ingress, pkt.size);
            let tx = self.tx_ns_on(link, pkt.size);
            self.sink.push(self.now + tx, Ev::TxDone(link));
            self.sink
                .push(self.now + tx + self.link_delay(link), Ev::Arrive(link, pkt));
        }
    }

    /// Lazily resolves the elided terminal `TxDone` of `link`, at tail
    /// slot `i`, if the reference datapath would already have processed
    /// it: its key is below the event being processed right now, so the
    /// wire has been idle since then.
    fn resolve_pending(&mut self, link: DirLinkId, i: usize) {
        let cur = (self.now, self.key);
        let q = &mut self.queues[i];
        if let Some(t) = q.pending_txdone {
            if (t, rank(CLASS_TXDONE, link, 0)) < cur {
                q.pending_txdone = None;
                q.go_idle();
            }
        }
    }

    pub(crate) fn link_delay(&self, link: DirLinkId) -> Ns {
        if link < self.base_up {
            self.cfg.link_delay_ns
        } else {
            self.cfg.server_link_delay_ns
        }
    }

    /// Serialization time of `bytes` on `link` under the current residual
    /// capacity, at least 1 ns; exactly [`SimConfig::tx_ns`] when no
    /// residuals are installed or a link's residual is 1 (bit-identity
    /// with the plain engine for a hybrid run without elephants).
    fn tx_ns_on(&self, link: DirLinkId, bytes: u32) -> Ns {
        match &self.rate_scale {
            None => self.cfg.tx_ns(bytes),
            Some(scale) => {
                let s = scale[link as usize];
                if s >= 1.0 {
                    self.cfg.tx_ns(bytes)
                } else {
                    ((bytes as f64 / (self.cfg.bytes_per_ns() * s)).ceil() as Ns).max(1)
                }
            }
        }
    }

    // ---- dynamic failures ----

    /// Swaps forwarding to `plane` (`None` = the baseline plane with its
    /// pristine hot-cache).
    pub(crate) fn install_plane(&mut self, plane: Option<Arc<SwapPlane>>) {
        self.hot = match &plane {
            Some(p) => p.hot.clone(),
            None => self.base_hot.clone(),
        };
        self.swap = plane;
    }

    /// Alive-state transition for one directed link at `self.now`. Going
    /// down stamps the cut time at the head (for the in-flight loss rule)
    /// and flushes the waiting queue at the tail; coming back up just
    /// reopens the port — the stale `cut_at` is harmless because the loss
    /// rule compares it against serialization *start* times, and nothing
    /// launches on a dead port. Every core applies every transition to its
    /// alive map, and the rest where it owns the end.
    pub(crate) fn set_link_alive(&mut self, link: DirLinkId, alive: bool) {
        let was = self.link_alive[link as usize];
        if was && !alive {
            self.link_alive[link as usize] = false;
            if self.sink.owns_head(link) {
                self.cut_at[self.sink.head_slot(link)] = self.now;
            }
            if !self.sink.owns_tail(link) {
                return;
            }
            let i = self.sink.tail_slot(link);
            if self.cfg.pfc.is_some() {
                // The flush discards packets that still hold per-ingress
                // charges upstream; discharge them first or their
                // ingresses stay paused forever (a phantom pause tree).
                // They arrived over ingresses whose head is this link's
                // tail, so this core owns those accounts.
                let held: Vec<(DirLinkId, u32)> = self.queues[i]
                    .iter_queued()
                    .map(|p| (p.ingress, p.size))
                    .collect();
                for (ing, sz) in held {
                    self.pfc_discharge(ing, sz);
                }
            }
            self.queues[i].flush_dead();
        } else if !was && alive {
            self.link_alive[link as usize] = true;
        }
    }

    /// Whether a firing RTO belongs to a flow that can never make progress
    /// again: an endpoint ToR is down, or the active plane has no route
    /// between the endpoint ToRs — and no control-plane event is pending
    /// that could change that. Processing such an RTO would retransmit
    /// into a void and re-arm forever, hanging a run whose `max_time_ns`
    /// is unbounded; skipping it lets the timer die and the flow end as
    /// `unfinished`. The decision reads only state every core keeps whole
    /// — the alive map and the planes — so datapaths and shard counts
    /// stay bit-identical, though the destination's links belong to
    /// another shard.
    fn rto_abandoned(&self, f: FlowId) -> bool {
        if self.link_alive.is_empty() || self.ctrl_pending > 0 {
            return false;
        }
        let spec = &self.plant.specs[f as usize];
        // A server's links die exactly when its ToR does.
        if !self.link_alive[(self.base_up + spec.src) as usize]
            || !self.link_alive[(self.base_up + spec.dst) as usize]
        {
            return true;
        }
        let ssw = self.plant.server_switch[spec.src as usize];
        let dsw = self.plant.server_switch[spec.dst as usize];
        if ssw == dsw {
            return false;
        }
        !match &self.swap {
            Some(sw) => sw.fs.reachable(ssw, dsw),
            None => self.fs.reachable(ssw, dsw),
        }
    }

    // ---- PFC ----

    /// Pause-frame transit from the node downstream of `ingress` back to
    /// its transmitter: serialize 64 B on the reverse wire + propagate.
    /// Both directions of a cable share one delay, so `link_delay(ingress)`
    /// is the reverse direction's delay too (uplinks pair with downlinks
    /// at the same `server_link_delay_ns`). Pause and resume transit
    /// identically and alternate strictly, so they can never overtake
    /// each other: the frame number in the content rank orders frames
    /// emitted at the same instant.
    fn pfc_transit(&self, ingress: DirLinkId) -> Ns {
        self.cfg.tx_ns(PAUSE_FRAME_BYTES) + self.link_delay(ingress)
    }

    /// Whether `ingress` has an XOFF outstanding (odd frame count).
    fn xoff_sent(&self, ingress: DirLinkId) -> bool {
        self.frames[self.sink.head_slot(ingress)] % 2 == 1
    }

    /// Emits the next pause/resume frame for `ingress`.
    fn pfc_frame(&mut self, ingress: DirLinkId) {
        let n = &mut self.frames[self.sink.head_slot(ingress)];
        *n += 1;
        let frame = *n;
        let at = self.now + self.pfc_transit(ingress);
        self.sink.push(at, Ev::Pfc(ingress, frame));
    }

    /// A packet that arrived over `ingress` was accepted into a queue at
    /// the downstream node: charge its account, emitting XOFF on the
    /// upward crossing of the pause threshold.
    fn pfc_charge(&mut self, ingress: DirLinkId, size: u32) {
        if ingress == INGRESS_NONE {
            return; // host-injected: the NIC is not a paused ingress
        }
        let p = self.cfg.pfc.expect("pfc_charge without PFC configured");
        let h = self.sink.head_slot(ingress);
        let b = &mut self.ingress_bytes[h];
        *b += size as u64;
        if *b > self.max_ingress_backlog {
            self.max_ingress_backlog = *b;
        }
        if *b >= p.xoff_bytes && !self.xoff_sent(ingress) {
            self.pause_frames += 1;
            if self.frames[h] == 0 {
                self.links_ever_paused += 1;
            }
            self.pfc_frame(ingress);
        }
    }

    /// A packet that arrived over `ingress` left the downstream node's
    /// buffer (its egress serialization finished, or a dead-link flush
    /// discarded it): discharge its account, emitting XON on the downward
    /// crossing of the resume threshold.
    fn pfc_discharge(&mut self, ingress: DirLinkId, size: u32) {
        if ingress == INGRESS_NONE {
            return;
        }
        let p = self.cfg.pfc.expect("pfc_discharge without PFC configured");
        let b = &mut self.ingress_bytes[self.sink.head_slot(ingress)];
        *b -= size as u64;
        if *b <= p.xon_bytes && self.xoff_sent(ingress) {
            self.resume_frames += 1;
            self.pfc_frame(ingress);
        }
    }

    // ---- the packet path ----

    /// The active plane's next hop as `(next vnode, directed link id)`:
    /// the reconverged swap plane when one is installed, the baseline
    /// plane otherwise. `None` means no route exists at this vnode —
    /// possible only after a failure disconnects it — and the packet must
    /// be dropped.
    fn active_hop(
        &self,
        router: NodeId,
        vnode: NodeId,
        dst: NodeId,
        h: u64,
    ) -> Option<(NodeId, u32)> {
        let (nv, edge) = match &self.swap {
            Some(sw) => sw.try_next_hop(vnode, dst, h)?,
            None => self.fs.next_hop(vnode, dst, h),
        };
        let (a, _b) = self.plant.edge_ends[edge as usize];
        let dir = if router == a { 0 } else { 1 };
        Some((nv, 2 * edge + dir))
    }

    /// Offers a packet to a directed link, scheduling wire events on start.
    /// Data packets pick up DCTCP ECN marks at congested queues.
    fn offer(&mut self, link: DirLinkId, mut pkt: Packet) {
        self.pkt_hops += 1;
        let i = self.sink.tail_slot(link);
        if !self.link_is_alive(link) {
            // Dead port: stale routing keeps steering packets here until
            // the control plane reconverges; they blackhole at the cut.
            self.queues[i].drops += 1;
            return;
        }
        if self.elide {
            // The port's busy flag must reflect the reference state before
            // any decision reads it.
            self.resolve_pending(link, i);
        }
        let ecn = match self.cfg.transport {
            Transport::Dctcp if !pkt.is_ack => Some(self.cfg.ecn_threshold_bytes.max(1)),
            _ => None,
        };
        // Marking must survive for packets that start transmitting
        // immediately, so apply it here from the observed backlog (the
        // queue applies it too for the queued path; both see the same
        // backlog value).
        if let Some(k) = ecn {
            if self.queues[i].backlog_bytes() >= k {
                pkt.ecn = true;
            }
        }
        // PFC sizes the (per-egress) buffer to the pause tree: per-ingress
        // thresholds bound real occupancy, but an incast of many ingresses
        // into one egress legitimately holds several XOFF-loads at once —
        // a real lossless switch provisions shared buffer for exactly
        // that, so the cap is lifted and `max_ingress_backlog` reports the
        // occupancy the thresholds actually allowed.
        let cap = if self.cfg.pfc.is_some() {
            u64::MAX
        } else {
            self.cfg.queue_bytes
        };
        match self.queues[i].offer(pkt, cap, ecn) {
            Offer::StartTx => {
                if self.cfg.pfc.is_some() {
                    self.inflight_meta[i] = (pkt.ingress, pkt.size);
                    self.pfc_charge(pkt.ingress, pkt.size);
                }
                let tx = self.tx_ns_on(link, pkt.size);
                if self.elide {
                    // The queue behind a freshly started wire is empty, so
                    // this TxDone would be terminal: elide it (recording
                    // its time) until a packet actually queues behind.
                    self.queues[i].pending_txdone = Some(self.now + tx);
                } else {
                    self.sink.push(self.now + tx, Ev::TxDone(link));
                }
                self.sink
                    .push(self.now + tx + self.link_delay(link), Ev::Arrive(link, pkt));
            }
            Offer::Queued => {
                if self.cfg.pfc.is_some() {
                    self.pfc_charge(pkt.ingress, pkt.size);
                }
                if let Some(t) = self.queues[i].pending_txdone.take() {
                    // A packet now waits behind the wire, so the elided
                    // terminal TxDone has real work to do: materialize it.
                    // resolve_pending guarantees its key is still ahead of
                    // the pop point.
                    self.sink.push(t, Ev::TxDone(link));
                }
            }
            Offer::Dropped => {}
        }
    }

    fn on_arrive(&mut self, link: DirLinkId, pkt: Packet) {
        if !self.link_alive.is_empty() {
            let cut = self.cut_at[self.sink.head_slot(link)];
            // The packet began serializing at `now - tx - delay`; if the
            // cable was cut at or after that instant (or is still down),
            // the packet was lost in flight. Purely a function of event
            // times, so every datapath and shard count agrees bit-for-bit.
            if !self.link_alive[link as usize]
                || (cut != NEVER_CUT
                    && cut
                        .saturating_add(self.link_delay(link))
                        .saturating_add(self.tx_ns_on(link, pkt.size))
                        >= self.now)
            {
                self.wire_drops += 1;
                return;
            }
        }
        if link >= self.base_down {
            // Server downlink: delivery to the host.
            self.deliver(pkt);
        } else {
            // Arrived at a switch (head of a switch link or of an uplink).
            let mut pkt = pkt;
            if self.cfg.pfc.is_some() {
                // The packet now occupies this switch's buffer on behalf
                // of this ingress; `offer` charges it to this account.
                pkt.ingress = link;
            }
            self.forward(pkt);
        }
    }

    /// Hop-by-hop forwarding at the switch `router_of(pkt.vnode)`.
    fn forward(&mut self, mut pkt: Packet) {
        if self.fs.delivered(pkt.vnode, pkt.dst_router) {
            let down = self.base_down + pkt.dst_server;
            self.offer(down, pkt);
            return;
        }
        let router = self.fs.router_of(pkt.vnode);
        let salt = self.plant.switch_salt[router as usize];
        let hop = match &self.hot {
            Some(hot) => {
                // Hot path: one mix of the pre-combined hash base, one
                // direct-indexed slot lookup, one modulo. `hash_base`
                // already folds flow hash, flowlet and ACK salt (XOR
                // commutes), so the hash is bit-identical to the reference
                // expression.
                let h = mix(pkt.hash_base ^ salt);
                let hop = hot.try_next_hop(pkt.vnode, pkt.dst_router, h);
                debug_assert_eq!(
                    h,
                    self.reference_hash(&pkt, salt),
                    "hash_base out of sync with flow/flowlet state"
                );
                debug_assert_eq!(
                    hop,
                    self.active_hop(router, pkt.vnode, pkt.dst_router, h),
                    "FIB hot-cache diverged from the active forwarding plane"
                );
                hop
            }
            None => {
                let h = self.reference_hash(&pkt, salt);
                self.active_hop(router, pkt.vnode, pkt.dst_router, h)
            }
        };
        match hop {
            Some((nv, dir_link)) => {
                pkt.vnode = nv;
                self.offer(dir_link, pkt);
            }
            // Disconnected vnode on a degraded plane: packet is gone.
            None => self.no_route_drops += 1,
        }
    }

    /// The ECMP hash of `pkt` at a switch salted `salt`, assembled from
    /// its inputs (the hot path reads the pre-combined `hash_base`).
    fn reference_hash(&self, pkt: &Packet, salt: u64) -> u64 {
        mix(self.plant.specs[pkt.flow as usize].hash
            ^ salt
            ^ ((pkt.flowlet as u64) << 32)
            ^ if pkt.is_ack { ACK_SALT } else { 0 })
    }

    /// A packet reached its destination server, whose endpoint state
    /// sits at the slot the packet carries.
    fn deliver(&mut self, pkt: Packet) {
        if pkt.is_ack {
            // A completed sender ignores ACKs.
            let Some(e) = self.live_sender(pkt.slot) else {
                #[cfg(test)]
                {
                    self.retired_hits[1] += 1;
                }
                return;
            };
            let mut out = std::mem::take(&mut self.out_scratch);
            if pkt.nack {
                self.senders[e].on_nack_into(self.now, pkt.seq, pkt.echo_epoch, &mut out);
            } else {
                self.senders[e].on_ack_ecn_into(
                    self.now,
                    pkt.seq,
                    pkt.echo_ns,
                    pkt.echo_epoch,
                    pkt.ecn,
                    &mut out,
                );
            }
            self.apply_tcp_output(pkt.flow, pkt.slot, e, &out);
            self.out_scratch = out;
        } else {
            self.delivered_bytes += pkt.size as u64;
            let spec = self.plant.specs[pkt.flow as usize];
            let (cum, is_nack) = self.on_data(pkt.slot, spec.bytes, pkt.seq, pkt.size);
            // Emit an ACK back to the source server.
            let here = self.plant.server_switch[pkt.dst_server as usize];
            let back_to = self.plant.server_switch[spec.src as usize];
            let mut ack = Packet::ack(
                pkt.flow,
                cum,
                self.cfg.ack_bytes,
                self.fs.start(here, back_to),
                back_to,
                spec.src,
                pkt.echo_ns,
                pkt.echo_epoch,
            );
            // DCTCP ECN echo: reflect the data packet's mark.
            ack.ecn = pkt.ecn;
            // Go-back-N: mark the gap report; it routes exactly like an
            // ACK and the sender dispatches on the flag.
            ack.nack = is_nack;
            // ACKs keep flowlet 0, so the pre-hashed key folds only the
            // flow hash and the ACK salt.
            ack.hash_base = spec.hash ^ ACK_SALT;
            ack.slot = self.sink.sender_of(pkt.slot);
            self.offer(self.base_up + pkt.dst_server, ack);
        }
    }

    /// Data `[seq, seq + size)` of a `bytes`-byte flow reached its
    /// receiver at `slot`: returns the cumulative ACK to send and whether
    /// it is a go-back-N NACK. The first data creates the receiver; the
    /// last in-order byte retires it, and a retired receiver answers every
    /// duplicate with the ACK of the whole flow, as it would have.
    fn on_data(&mut self, slot: u32, bytes: u64, seq: u64, size: u32) -> (u64, bool) {
        let e = match entry(&self.receiver_at, slot) {
            RETIRED => {
                #[cfg(test)]
                {
                    self.retired_hits[0] += 1;
                }
                self.retired_received += size as u64;
                return (bytes, false);
            }
            UNSTARTED => self.start_receiver(slot),
            e => e,
        };
        let r = &mut self.receivers[e];
        let signal = if self.cfg.transport == Transport::GoBackN {
            // Go-back-N receiver: in-order data advances the cumulative
            // ack; out-of-order data is discarded and NACKed (the NACK
            // names the first missing byte).
            match r.on_data_gbn(seq, size) {
                GbnSignal::Ack(c) => (c, false),
                GbnSignal::Nack(c) => (c, true),
            }
        } else {
            (r.on_data(seq, size), false)
        };
        if r.cum_ack() == bytes {
            self.retire_receiver(slot, e);
        }
        signal
    }

    /// Creates the receiver at `slot`, when its flow's first data arrives.
    #[inline(never)]
    fn start_receiver(&mut self, slot: u32) -> u32 {
        let e = self.receivers.take(TcpReceiver::new());
        let admitted = self.sink.slots()[1];
        set_slot(&mut self.receiver_at, slot, e, admitted, UNSTARTED);
        e
    }

    /// The receiver at `slot`, in entry `e`, has every byte: keeps its
    /// byte counts and returns the entry.
    #[inline(never)]
    fn retire_receiver(&mut self, slot: u32, e: u32) {
        let r = &self.receivers[e];
        self.retired_acked += r.cum_ack();
        self.retired_received += r.received_bytes;
        self.receivers.give_back(e);
        self.receiver_at[slot as usize] = RETIRED;
    }

    /// Turns the [`TcpOutput`] of `flow`'s sender, at slot `sender` and
    /// pool entry `e`, into packets and timers. Borrows the output so the
    /// core's scratch buffer survives the call (zero-allocation
    /// turnaround).
    fn apply_tcp_output(&mut self, flow: FlowId, sender: u32, e: u32, out: &TcpOutput) {
        let spec = self.plant.specs[flow as usize];
        let src_sw = self.plant.server_switch[spec.src as usize];
        let dst_sw = self.plant.server_switch[spec.dst as usize];
        let epoch = self.senders[e].epoch();
        // Flowlet detection at the sending host: an idle gap longer than
        // the threshold starts a new flowlet, re-rolling the ECMP hash.
        // Without flowlets every packet is flowlet 0.
        let flowlet = match self.cfg.flowlet_gap_ns {
            Some(gap) => {
                let i = e as usize;
                if !out.send.is_empty() {
                    if self.now.saturating_sub(self.last_emit_ns[i]) > gap {
                        self.flowlet_id[i] = self.flowlet_id[i].wrapping_add(1);
                    }
                    self.last_emit_ns[i] = self.now;
                }
                self.flowlet_id[i]
            }
            None => 0,
        };
        let receiver = self.sink.receiver_of(sender);
        for act in &out.send {
            let mut pkt = Packet::data(
                flow,
                act.seq,
                act.size,
                self.fs.start(src_sw, dst_sw),
                dst_sw,
                spec.dst,
                self.now,
                epoch,
            );
            pkt.flowlet = flowlet;
            pkt.hash_base = spec.hash ^ ((pkt.flowlet as u64) << 32);
            pkt.slot = receiver;
            self.offer(self.base_up + spec.src, pkt);
        }
        if let Some((deadline, gen)) = out.set_timer {
            self.sink.arm_rto(deadline, flow, sender, gen);
        } else if out.completed {
            self.sink.disarm_rto(sender);
        }
        if out.completed {
            self.retire_sender(sender, e, self.now - spec.start_ns);
        }
    }
}

/// A core's run counters. [`merge`](Self::merge) combines the shards':
/// sums, but maxima for the backlog and the last live time.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Tally {
    pub(crate) delivered_bytes: u64,
    /// Queue drops of every cause: overflow, dead ports, in-flight cuts.
    pub(crate) queue_drops: u64,
    pub(crate) no_route_drops: u64,
    pub(crate) congestion_drops: u64,
    pub(crate) pause_frames: u64,
    pub(crate) resume_frames: u64,
    pub(crate) links_ever_paused: u64,
    pub(crate) max_ingress_backlog: u64,
    pub(crate) last_live: Ns,
    /// Ingress links with an XOFF outstanding (an odd frame count).
    open_pauses: u64,
    /// Bytes the receivers acknowledged in order: each byte once, however
    /// often it arrived.
    acked_bytes: u64,
    /// Data bytes that reached receivers, live or retired, duplicates
    /// included.
    received_bytes: u64,
    /// Sender pool entries `[taken, returned, held by a slot]`.
    senders: [u64; 3],
    /// Receiver pool entries `[taken, returned, held by a slot]`.
    receivers: [u64; 3],
    /// Entries the pools count as in use.
    pool_live: u64,
    /// Admitted flows that never started.
    pending_starts: u64,
    /// Whether a failure schedule is installed.
    faults: bool,
    /// Whether PFC is on.
    lossless: bool,
}

impl Tally {
    pub(crate) fn merge(self, o: Tally) -> Tally {
        Tally {
            delivered_bytes: self.delivered_bytes + o.delivered_bytes,
            queue_drops: self.queue_drops + o.queue_drops,
            no_route_drops: self.no_route_drops + o.no_route_drops,
            congestion_drops: self.congestion_drops + o.congestion_drops,
            pause_frames: self.pause_frames + o.pause_frames,
            resume_frames: self.resume_frames + o.resume_frames,
            links_ever_paused: self.links_ever_paused + o.links_ever_paused,
            max_ingress_backlog: self.max_ingress_backlog.max(o.max_ingress_backlog),
            last_live: self.last_live.max(o.last_live),
            open_pauses: self.open_pauses + o.open_pauses,
            acked_bytes: self.acked_bytes + o.acked_bytes,
            received_bytes: self.received_bytes + o.received_bytes,
            senders: std::array::from_fn(|i| self.senders[i] + o.senders[i]),
            receivers: std::array::from_fn(|i| self.receivers[i] + o.receivers[i]),
            pool_live: self.pool_live + o.pool_live,
            pending_starts: self.pending_starts + o.pending_starts,
            faults: self.faults || o.faults,
            lossless: self.lossless || o.lossless,
        }
    }

    /// Panics unless `report`, built from this tally, keeps the
    /// conservation laws of a run at any shard count:
    ///
    /// * pause frames − resume frames = ingress links left paused;
    /// * queue drops + no-route drops = dropped packets, and tail drops
    ///   are among them — all of them without a failure schedule, none
    ///   under PFC;
    /// * bytes acknowledged in order ≤ admitted bytes, and ≤ delivered
    ///   bytes (which count duplicates too); every finished flow's bytes
    ///   are among them;
    /// * bytes received, by live and retired receivers alike, = delivered
    ///   bytes;
    /// * per pool, entries taken = entries returned + entries a slot still
    ///   holds, and the pools count the same entries in use;
    /// * live senders + flows never started = unfinished flows.
    pub(crate) fn check(&self, report: &SimReport) {
        assert_eq!(
            report.pause_frames - report.resume_frames,
            self.open_pauses,
            "pause and resume frames do not pair up"
        );
        assert_eq!(
            self.queue_drops + self.no_route_drops,
            report.dropped_packets,
            "drops lost in the merge"
        );
        assert!(
            report.congestion_drops <= report.dropped_packets,
            "tail drops exceed drops"
        );
        if !self.faults {
            assert_eq!(
                report.congestion_drops, report.dropped_packets,
                "a drop without a cause"
            );
        }
        if self.lossless {
            assert_eq!(report.congestion_drops, 0, "a lossless fabric tail-dropped");
        }
        let admitted: u64 = report.flows.iter().map(|f| f.bytes).sum();
        assert!(
            self.acked_bytes <= admitted,
            "more bytes acknowledged than admitted"
        );
        assert!(
            self.acked_bytes <= report.delivered_bytes,
            "more bytes acknowledged than delivered"
        );
        let finished: u64 = report
            .flows
            .iter()
            .filter(|f| f.fct_ns.is_some())
            .map(|f| f.bytes)
            .sum();
        assert!(
            finished <= self.acked_bytes,
            "a finished flow's receiver is missing bytes"
        );
        assert_eq!(
            self.received_bytes, report.delivered_bytes,
            "received bytes lost with a retired receiver"
        );
        for (name, [taken, returned, held]) in
            [("sender", self.senders), ("receiver", self.receivers)]
        {
            assert_eq!(
                taken,
                returned + held,
                "{name} pool entries leaked or returned twice"
            );
        }
        assert_eq!(
            self.pool_live,
            self.senders[2] + self.receivers[2],
            "pools and slots disagree on the entries in use"
        );
        assert_eq!(
            self.senders[2] + self.pending_starts,
            report.unfinished() as u64,
            "live senders do not match the unfinished flows"
        );
    }
}

/// The report's `end_ns` (see [`SimReport::end_ns`](crate::SimReport)):
/// when the last flow completed if every flow did, else the horizon
/// `max_time`, or `last_live` when there is none.
pub(crate) fn run_end(flows: &[FlowRecord], max_time: Ns, last_live: Ns) -> Ns {
    let done: Option<Vec<Ns>> = flows
        .iter()
        .map(|f| f.fct_ns.map(|c| f.start_ns + c))
        .collect();
    match done {
        Some(ends) => ends.into_iter().max().unwrap_or(0),
        None if max_time < Ns::MAX => max_time,
        None => last_live,
    }
}

/// splitmix64 finalizer — cheap, well-mixed hashing for ECMP.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_keeps_pfc_frames_in_emission_order() {
        // A resume and a pause for one link can be emitted at the same
        // instant and so arrive together; the frame number must order them.
        for n in [1u64, 2, 3, 4, 1_000] {
            assert!(
                rank_of(&Ev::Pfc(7, n)) < rank_of(&Ev::Pfc(7, n + 1)),
                "frame {n}"
            );
        }
        assert!(rank_of(&Ev::Rto(u32::MAX, 0, 3)) < rank_of(&Ev::Pfc(0, 1)));
    }

    #[test]
    fn rank_names_its_entity_and_not_the_slot() {
        for f in [0, 7, u32::MAX] {
            let r = rank_of(&Ev::Rto(f, 3, 9));
            assert_eq!(entity_of(r), f);
            assert_eq!(r, rank_of(&Ev::Rto(f, 4, 9)));
        }
    }
}
