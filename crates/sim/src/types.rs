//! Identifiers, configuration and reporting types for the simulator.

/// Dense identifier of a flow inside one simulation.
pub type FlowId = u32;

/// Dense identifier of a *directed* link (switch-switch directions first,
/// then server uplinks, then server downlinks — see `engine`).
pub type DirLinkId = u32;

/// Simulation time in nanoseconds from simulation start.
pub type Ns = u64;

/// Simulator configuration.
///
/// Defaults reproduce the paper's setup: 10 Gbps links (§5.3), a standard
/// 100-packet drop-tail queue, 1500-byte packets, and NewReno TCP with a
/// 1 ms minimum RTO — the htsim conventions of the papers this one builds
/// on [15, 18, 23].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Link rate in Gbit/s for every link, server links included
    /// (the paper's configurations are homogeneous, §5.1).
    pub link_rate_gbps: f64,
    /// Propagation delay of switch-switch links, ns.
    pub link_delay_ns: Ns,
    /// Propagation delay of server-ToR links, ns.
    pub server_link_delay_ns: Ns,
    /// Drop-tail queue capacity per directed link, bytes.
    pub queue_bytes: u64,
    /// Maximum segment size (data packet payload), bytes.
    pub mss_bytes: u32,
    /// ACK packet size on the wire, bytes.
    pub ack_bytes: u32,
    /// Initial congestion window, segments.
    pub initial_cwnd: u32,
    /// Minimum retransmission timeout, ns.
    pub min_rto_ns: Ns,
    /// Hard stop: events after this time are not processed; incomplete
    /// flows report `fct_ns = None`. `u64::MAX` = run to completion.
    pub max_time_ns: Ns,
    /// Flowlet switching (extension; §2's hybrid scheme uses it): when
    /// set, a send gap larger than this many ns starts a new flowlet,
    /// re-rolling the flow's ECMP hash. `None` = classic per-flow ECMP.
    pub flowlet_gap_ns: Option<Ns>,
    /// Congestion control: the paper's plain TCP (NewReno) or DCTCP
    /// (extension — the transport modern DCs actually run; htsim models
    /// it too).
    pub transport: Transport,
    /// DCTCP ECN marking threshold, bytes of queue backlog (the classic
    /// K; ~20 full packets at 10 Gbps).
    pub ecn_threshold_bytes: u64,
    /// Event-scheduler implementation. Purely a performance knob: event
    /// order is a total order on `(time, content rank)`, so every
    /// scheduler produces byte-identical results.
    pub scheduler: Scheduler,
    /// Per-packet datapath implementation. Also purely a performance knob:
    /// the fast datapath (flat FIB hot-cache, RTO timer wheel, elided
    /// terminal `TxDone` events) produces outcomes —
    /// FCTs, drops, delivered bytes, per-link tx bytes — byte-identical to
    /// the reference datapath; only [`SimReport::events`] may differ, since
    /// the reference path processes no-op events (stale RTOs, terminal
    /// `TxDone`s) that the fast path never materializes. The invariant is
    /// pinned by the `fast_datapath_matches_reference_*` engine tests and
    /// the `tests/proptest_sim.rs` equivalence properties.
    pub datapath: Datapath,
    /// Lossless switching: when set, switches run priority flow control
    /// with these thresholds and drop no data packets (pause frames
    /// propagate backpressure instead). `None` = classic lossy drop-tail,
    /// the paper's setup. Every shard count runs it; the
    /// hybrid co-simulation rejects it, because fluid elephants hold no
    /// buffer occupancy for pause frames to act on.
    pub pfc: Option<PfcConfig>,
}

/// Which event-scheduler implementation the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Per-delay FIFO lanes in front of a binary heap
    /// ([`crate::equeue::DelayLanes`]): `O(1)` for the wire events that
    /// land at a fixed offset from now, the heap for everything else. The
    /// default.
    #[default]
    Auto,
    /// Binary min-heap — the reference implementation, kept for
    /// determinism cross-checks against the delay lanes.
    ReferenceHeap,
}

/// Which per-packet datapath the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Datapath {
    /// Hot-path implementation: direct-indexed FIB cache, hierarchical
    /// timer wheel for RTOs, terminal-`TxDone` elision — the default.
    #[default]
    Fast,
    /// The original per-packet code path (CSR DAG walk per hop, every
    /// timer and `TxDone` through the event queue), kept as the
    /// bit-exactness reference. Both datapaths reuse one TCP output
    /// buffer across inputs.
    Reference,
}

/// Congestion-control algorithm for every flow of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// TCP NewReno — the paper's §5.3 setup.
    NewReno,
    /// DCTCP: ECN marks above a queue threshold, fraction-proportional
    /// window reduction (Alizadeh et al.).
    Dctcp,
    /// NACK-driven go-back-N over a fixed window — the RDMA-style
    /// transport for the lossless (PFC) fabric. Receivers discard
    /// out-of-order data and NACK the gap; the sender rolls its send
    /// edge back and resends. Usable on lossy fabrics too (it just
    /// retransmits more), but designed for [`SimConfig::pfc`] runs.
    GoBackN,
}

/// Priority-flow-control (IEEE 802.1Qbb style) thresholds for lossless
/// switching, in bytes of *per-ingress* buffer occupancy at the next hop.
///
/// When the bytes a downstream queue holds from one upstream ingress link
/// cross `xoff_bytes`, the switch emits a pause frame back up that ingress;
/// the upstream transmitter finishes its in-flight packet and stops. When
/// occupancy falls to `xon_bytes` a resume frame re-opens it. Thresholds
/// leave headroom below [`SimConfig::queue_bytes`] for the packets still in
/// flight during the pause frame's propagation, so data is never dropped at
/// a full queue (asserted by the engine's lossless accounting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfcConfig {
    /// Pause (XOFF) threshold, bytes of per-ingress occupancy.
    pub xoff_bytes: u64,
    /// Resume (XON) threshold, bytes; must be `< xoff_bytes` for
    /// hysteresis.
    pub xon_bytes: u64,
}

impl Default for PfcConfig {
    /// Half the default 150 kB queue as XOFF, a fifth as XON: ample
    /// headroom for one RTT of in-flight packets at 10 Gbps.
    fn default() -> Self {
        PfcConfig {
            xoff_bytes: 75_000,
            xon_bytes: 30_000,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            link_rate_gbps: 10.0,
            link_delay_ns: 500,
            server_link_delay_ns: 500,
            queue_bytes: 150_000, // 100 * 1500B packets
            mss_bytes: 1_500,
            ack_bytes: 40,
            initial_cwnd: 10,
            min_rto_ns: 1_000_000, // 1 ms
            max_time_ns: u64::MAX,
            flowlet_gap_ns: None,
            transport: Transport::NewReno,
            ecn_threshold_bytes: 30_000, // 20 packets
            scheduler: Scheduler::Auto,
            datapath: Datapath::Fast,
            pfc: None,
        }
    }
}

impl SimConfig {
    /// Link rate in bytes per nanosecond.
    pub fn bytes_per_ns(&self) -> f64 {
        self.link_rate_gbps / 8.0
    }

    /// Serialization time of `bytes` on one link, in ns (rounded up, and
    /// at least 1 ns even for a zero-byte frame). The floor keeps a
    /// link's wire events strictly monotone in time, which makes every
    /// event's `(time, content rank)` key unique.
    pub fn tx_ns(&self, bytes: u32) -> Ns {
        ((bytes as f64 / self.bytes_per_ns()).ceil() as Ns).max(1)
    }
}

/// Per-flow outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    /// Flow id.
    pub id: FlowId,
    /// Source server (global id).
    pub src: u32,
    /// Destination server (global id).
    pub dst: u32,
    /// Flow size, bytes.
    pub bytes: u64,
    /// Start time.
    pub start_ns: Ns,
    /// Flow completion time (`finish - start`); `None` if the simulation
    /// ended first.
    pub fct_ns: Option<Ns>,
    /// Data segments retransmitted (fast retransmit + timeout).
    pub retransmits: u32,
    /// Retransmission timeouts fired.
    pub timeouts: u32,
}

/// Whole-simulation outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Per-flow records, indexed by [`FlowId`].
    pub flows: Vec<FlowRecord>,
    /// Packets dropped at full queues (data and ACKs; ACKs are 40 B and
    /// essentially never fill a queue, so in practice this counts data).
    pub dropped_packets: u64,
    /// Total data bytes delivered to receivers (including retransmitted
    /// duplicates).
    pub delivered_bytes: u64,
    /// When the run ended: the time the last flow completed if every flow
    /// did; otherwise the horizon `max_time_ns`, or, with no horizon, the
    /// time of the last event that did any work (a stale RTO firing does
    /// none). Engine-independent by construction: the serial and sharded
    /// engines, on either datapath, report the same value.
    pub end_ns: Ns,
    /// Total events processed.
    pub events: u64,
    /// Whether the run finished with the fast datapath forwarding through
    /// a FIB hot-cache. `false` either because the reference datapath was
    /// selected, or because [`SimConfig::datapath`] asked for `Fast` but
    /// the forwarding plane exposes no cache (e.g. `DualPlane`) or the
    /// cache exceeded its byte budget — i.e. the fast path silently fell
    /// back to per-hop walks. Drivers should surface that fallback instead
    /// of reporting fast-path throughput for a slow-path run.
    pub used_fib_cache: bool,
    /// Packets dropped at *full queues* specifically. Under PFC this is
    /// the lossless invariant's counter: it must stay 0 for data packets
    /// (dead-link flushes during failure schedules count under
    /// [`SimReport::dropped_packets`], not here). Without PFC it equals
    /// `dropped_packets`.
    pub congestion_drops: u64,
    /// Pause (XOFF) frames emitted. 0 unless [`SimConfig::pfc`] is set.
    pub pause_frames: u64,
    /// Resume (XON) frames emitted.
    pub resume_frames: u64,
    /// Directed links that were paused at least once — the footprint of
    /// the pause tree (the congestion-spreading metric of EXPERIMENTS P7).
    pub links_ever_paused: u64,
    /// Largest per-ingress occupancy any queue reached, bytes. Under PFC
    /// this stays below `queue_bytes` (that headroom is what makes the
    /// fabric lossless); without PFC it is 0 (not tracked).
    pub max_ingress_backlog: u64,
}

impl SimReport {
    /// FCTs of completed flows, in ns, unsorted.
    pub fn fcts(&self) -> Vec<Ns> {
        self.flows.iter().filter_map(|f| f.fct_ns).collect()
    }

    /// Number of flows that did not finish before `max_time_ns`.
    pub fn unfinished(&self) -> usize {
        self.flows.iter().filter(|f| f.fct_ns.is_none()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_setup() {
        let c = SimConfig::default();
        assert_eq!(c.link_rate_gbps, 10.0);
        assert_eq!(c.bytes_per_ns(), 1.25);
        // A full-size packet serializes in 1.2 us on 10G.
        assert_eq!(c.tx_ns(1500), 1200);
        assert_eq!(c.tx_ns(40), 32);
    }

    #[test]
    fn tx_time_rounds_up() {
        let c = SimConfig {
            link_rate_gbps: 7.0,
            ..Default::default()
        };
        // 1500 / 0.875 = 1714.28... -> 1715.
        assert_eq!(c.tx_ns(1500), 1715);
    }

    #[test]
    fn zero_byte_frames_take_one_ns() {
        let c = SimConfig::default();
        assert_eq!(c.tx_ns(0), 1);
        assert_eq!(c.tx_ns(1), 1);
    }

    #[test]
    fn report_helpers() {
        let mk = |id, fct| FlowRecord {
            id,
            src: 0,
            dst: 1,
            bytes: 100,
            start_ns: 0,
            fct_ns: fct,
            retransmits: 0,
            timeouts: 0,
        };
        let r = SimReport {
            flows: vec![mk(0, Some(5)), mk(1, None), mk(2, Some(9))],
            dropped_packets: 0,
            delivered_bytes: 0,
            end_ns: 10,
            events: 3,
            used_fib_cache: true,
            congestion_drops: 0,
            pause_frames: 0,
            resume_frames: 0,
            links_ever_paused: 0,
            max_ingress_backlog: 0,
        };
        assert_eq!(r.fcts(), vec![5, 9]);
        assert_eq!(r.unfinished(), 1);
    }
}
