//! TCP sender and receiver state machines.
//!
//! The machines are engine-agnostic: each input event returns a
//! [`TcpOutput`] describing segments to emit and the RTO timer to (re)arm,
//! and the engine turns those into queue operations and events. This keeps
//! the transport logic purely functional over its own state and
//! unit-testable without a network.
//!
//! The sender owns the *loss-detection machine*; window sizing is
//! delegated to a [`CongAlg`](crate::cong::CongAlg) (NewReno / DCTCP /
//! fixed-window), picked from [`Transport`](crate::types::Transport) at
//! construction.
//!
//! Implemented behaviour (the subset that matters at htsim fidelity):
//!
//! * slow start and AIMD congestion avoidance;
//! * fast retransmit on three duplicate ACKs, NewReno partial-ACK recovery;
//! * RTO per RFC 6298 (SRTT/RTTVAR, Karn's rule via retransmission epochs,
//!   exponential backoff, configurable floor);
//! * cumulative ACKs with out-of-order reassembly at the receiver;
//! * NACK-driven go-back-N ([`Transport::GoBackN`]) for the lossless (PFC)
//!   fabric: the receiver accepts only in-order data and NACKs the first
//!   gap; the sender rolls its send edge back and resends the window.

use crate::cong::CongAlg;
use crate::types::{FlowId, Ns, Transport};
use std::collections::BTreeMap;

/// A segment the sender wants on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendAction {
    /// First byte offset.
    pub seq: u64,
    /// Payload bytes.
    pub size: u32,
    /// `true` if this is a retransmission.
    pub is_rtx: bool,
}

/// What a sender wants done after processing one input.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TcpOutput {
    /// Segments to transmit, in order.
    pub send: Vec<SendAction>,
    /// Arm the RTO timer: `(deadline, generation)`. Later generations
    /// invalidate earlier ones (lazy cancellation).
    pub set_timer: Option<(Ns, u64)>,
    /// The flow finished with this input (all bytes cumulatively acked).
    pub completed: bool,
}

impl TcpOutput {
    /// Resets to the empty output, keeping the `send` allocation — the
    /// engine's fast datapath reuses one scratch `TcpOutput` across all
    /// TCP inputs so the steady-state loop allocates nothing.
    pub fn clear(&mut self) {
        self.send.clear();
        self.set_timer = None;
        self.completed = false;
    }
}

/// Sender-side state machine for one flow.
#[derive(Debug, Clone)]
pub struct TcpSender {
    /// Flow this sender belongs to.
    pub flow: FlowId,
    /// Total bytes to deliver.
    pub total_bytes: u64,
    mss: u32,
    min_rto_ns: Ns,

    next_seq: u64,
    cum_acked: u64,
    /// Highest send edge ever reached; anything re-sent below it is a
    /// retransmission (go-back-N rolls `next_seq` back below this).
    high_water: u64,
    dup_acks: u32,
    in_recovery: bool,
    recover: u64,
    rtx_epoch: u32,

    srtt_ns: Option<f64>,
    rttvar_ns: f64,
    rto_ns: Ns,
    backoff: u32,
    timer_gen: u64,
    completed: bool,

    transport: Transport,
    /// Window arithmetic, behind the `CongAlg` seam.
    alg: CongAlg,

    /// Segments retransmitted.
    pub retransmits: u32,
    /// RTOs fired.
    pub timeouts: u32,
}

impl TcpSender {
    /// Creates a sender for `total_bytes` with the given initial window.
    pub fn new(
        flow: FlowId,
        total_bytes: u64,
        mss: u32,
        initial_cwnd: u32,
        min_rto_ns: Ns,
    ) -> TcpSender {
        Self::with_transport(
            flow,
            total_bytes,
            mss,
            initial_cwnd,
            min_rto_ns,
            Transport::NewReno,
        )
    }

    /// Creates a sender with an explicit congestion-control algorithm.
    pub fn with_transport(
        flow: FlowId,
        total_bytes: u64,
        mss: u32,
        initial_cwnd: u32,
        min_rto_ns: Ns,
        transport: Transport,
    ) -> TcpSender {
        assert!(total_bytes > 0, "empty flow");
        assert!(mss > 0);
        let alg = CongAlg::for_transport(transport, initial_cwnd);
        TcpSender {
            flow,
            total_bytes,
            mss,
            min_rto_ns,
            next_seq: 0,
            cum_acked: 0,
            high_water: 0,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            rtx_epoch: 0,
            srtt_ns: None,
            rttvar_ns: 0.0,
            rto_ns: min_rto_ns.max(1_000_000), // 1 ms before first sample
            backoff: 0,
            timer_gen: 0,
            completed: false,
            transport,
            alg,
            retransmits: 0,
            timeouts: 0,
        }
    }

    /// DCTCP's current marked-fraction estimate (0 for NewReno).
    pub fn dctcp_alpha(&self) -> f64 {
        self.alg.alpha()
    }

    /// Congestion window in segments (diagnostics).
    pub fn cwnd(&self) -> f64 {
        self.alg.cwnd()
    }

    /// Current retransmission epoch (stamped into data packets).
    pub fn epoch(&self) -> u32 {
        self.rtx_epoch
    }

    /// Whether all bytes have been cumulatively acknowledged.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// Cumulative bytes acknowledged so far.
    pub fn acked(&self) -> u64 {
        self.cum_acked
    }

    /// Opens the flow: emits the initial window and arms the RTO.
    pub fn start(&mut self, now: Ns) -> TcpOutput {
        let mut out = TcpOutput::default();
        self.start_into(now, &mut out);
        out
    }

    /// [`start`](Self::start) writing into a caller-owned scratch output
    /// (cleared first) so the hot loop reuses one allocation.
    pub fn start_into(&mut self, now: Ns, out: &mut TcpOutput) {
        out.clear();
        self.fill_window(out);
        self.arm_timer(now, out);
    }

    /// Processes a cumulative ACK for all bytes `< ack`. `echo_ns` and
    /// `echo_epoch` are the RTT-sample echo carried by the ACK.
    pub fn on_ack(&mut self, now: Ns, ack: u64, echo_ns: Ns, echo_epoch: u32) -> TcpOutput {
        self.on_ack_ecn(now, ack, echo_ns, echo_epoch, false)
    }

    /// [`on_ack`](Self::on_ack) with the ACK's ECN-echo bit (DCTCP).
    pub fn on_ack_ecn(
        &mut self,
        now: Ns,
        ack: u64,
        echo_ns: Ns,
        echo_epoch: u32,
        ece: bool,
    ) -> TcpOutput {
        let mut out = TcpOutput::default();
        self.on_ack_ecn_into(now, ack, echo_ns, echo_epoch, ece, &mut out);
        out
    }

    /// [`on_ack_ecn`](Self::on_ack_ecn) writing into a caller-owned scratch
    /// output (cleared first) so the hot loop reuses one allocation.
    pub fn on_ack_ecn_into(
        &mut self,
        now: Ns,
        ack: u64,
        echo_ns: Ns,
        echo_epoch: u32,
        ece: bool,
        out: &mut TcpOutput,
    ) {
        out.clear();
        if self.completed {
            return;
        }
        if ack > self.cum_acked {
            let newly = ack - self.cum_acked;
            // Pre-update hook (DCTCP mark accounting; no-op otherwise) —
            // runs before cum_acked/next_seq move, exactly where the
            // pre-seam inline code sat.
            self.alg
                .on_ack_data(ack, newly, ece, self.in_recovery, self.next_seq);
            self.cum_acked = ack;
            self.next_seq = self.next_seq.max(ack);
            if echo_epoch == self.rtx_epoch {
                self.sample_rtt(now.saturating_sub(echo_ns));
            }
            if self.in_recovery {
                if ack >= self.recover {
                    // Full ACK: leave recovery, deflate to ssthresh.
                    self.in_recovery = false;
                    self.alg.exit_recovery();
                    self.dup_acks = 0;
                } else {
                    // Partial ACK: the next hole is lost too — retransmit
                    // it immediately (NewReno), stay in recovery.
                    self.retransmit_hole(out);
                }
            } else {
                self.dup_acks = 0;
                self.alg.on_newly_acked(newly, self.mss);
            }
            if self.cum_acked >= self.total_bytes {
                self.completed = true;
                out.completed = true;
                self.timer_gen += 1; // cancel pending RTO
                return;
            }
            self.fill_window(out);
            self.arm_timer(now, out);
        } else if ack == self.cum_acked && self.transport != Transport::GoBackN {
            // Go-back-N never fast-retransmits on duplicates: its receiver
            // discards out-of-order data, so duplicate ACKs carry no SACK
            // information — loss recovery is NACK- and RTO-driven only.
            self.dup_acks += 1;
            if !self.in_recovery && self.dup_acks == 3 {
                // Fast retransmit.
                self.alg.enter_recovery();
                self.in_recovery = true;
                self.recover = self.next_seq;
                self.rtx_epoch += 1;
                self.retransmit_hole(out);
                self.arm_timer(now, out);
            } else if self.in_recovery {
                // Window inflation lets new data out during recovery.
                self.alg.inflate();
                self.fill_window(out);
            }
        }
    }

    /// Processes a go-back-N NACK: the receiver saw out-of-order data and
    /// asks for everything from `nack_seq` again. `echo_epoch` is the
    /// retransmission epoch stamped on the data packet that triggered the
    /// NACK — a stale epoch means the sender already rolled back for this
    /// loss burst, and the NACK is ignored (one rollback per burst).
    pub fn on_nack(&mut self, now: Ns, nack_seq: u64, echo_epoch: u32) -> TcpOutput {
        let mut out = TcpOutput::default();
        self.on_nack_into(now, nack_seq, echo_epoch, &mut out);
        out
    }

    /// [`on_nack`](Self::on_nack) writing into a caller-owned scratch
    /// output (cleared first) so the hot loop reuses one allocation.
    pub fn on_nack_into(&mut self, now: Ns, nack_seq: u64, echo_epoch: u32, out: &mut TcpOutput) {
        out.clear();
        if self.completed || self.transport != Transport::GoBackN {
            return;
        }
        if echo_epoch != self.rtx_epoch {
            return;
        }
        let target = nack_seq.max(self.cum_acked);
        if target >= self.next_seq {
            return;
        }
        // Roll the send edge back and resend the window from the gap;
        // bumping the epoch retires RTT echoes and NACKs from the
        // pre-rollback packets still in flight (Karn's rule, reused).
        self.rtx_epoch += 1;
        self.next_seq = target;
        self.fill_window(out);
        self.arm_timer(now, out);
    }

    /// Processes an RTO timer firing with generation `gen`; stale
    /// generations are ignored.
    pub fn on_timer(&mut self, now: Ns, gen: u64) -> TcpOutput {
        let mut out = TcpOutput::default();
        self.on_timer_into(now, gen, &mut out);
        out
    }

    /// [`on_timer`](Self::on_timer) writing into a caller-owned scratch
    /// output (cleared first) so the hot loop reuses one allocation.
    pub fn on_timer_into(&mut self, now: Ns, gen: u64, out: &mut TcpOutput) {
        out.clear();
        if !self.timer_live(gen) {
            return;
        }
        self.timeouts += 1;
        self.rtx_epoch += 1;
        if self.transport == Transport::GoBackN {
            // Go-back-N timeout: roll the send edge back to the cumulative
            // ack and resend the whole window. The window is fixed
            // (ConstCwnd), so there is no collapse and no NewReno
            // hole-by-hole recovery; backoff still spaces repeat timeouts.
            self.backoff = (self.backoff + 1).min(8);
            self.next_seq = self.cum_acked;
            self.fill_window(out);
            self.arm_timer(now, out);
            return;
        }
        self.alg.on_timeout();
        // An RTO means everything in flight is presumed lost: enter loss
        // recovery up to `next_seq` so each partial ACK retransmits the
        // next hole immediately (RFC 6582 §3.2). Without this, recovery
        // after a full-window loss (e.g. a link cut under the flow) crawls
        // at one segment per *RTO* instead of one per RTT, because the
        // hole's ACK finds the window full and nothing retransmits until
        // the next timeout.
        self.in_recovery = true;
        self.recover = self.next_seq;
        self.dup_acks = 0;
        self.backoff = (self.backoff + 1).min(8);
        self.retransmit_hole(out);
        self.arm_timer(now, out);
    }

    /// Current RTO timer generation; the engine's timing wheel keys its
    /// cancellations on this.
    pub fn timer_gen(&self) -> u64 {
        self.timer_gen
    }

    /// Whether an RTO of generation `gen` would fire: the flow is still
    /// open and has not re-armed since.
    pub fn timer_live(&self, gen: u64) -> bool {
        !self.completed && gen == self.timer_gen
    }

    /// Sends as much data as the window allows from `next_seq`. Segments
    /// below the high-water mark are resends (go-back-N rollback); for the
    /// NewReno/DCTCP machines `next_seq` never moves backwards, so this
    /// path emits only fresh data there, exactly as before the seam.
    fn fill_window(&mut self, out: &mut TcpOutput) {
        let win = (self.alg.cwnd().floor().max(1.0) as u64) * self.mss as u64;
        while self.next_seq < self.total_bytes && self.next_seq < self.cum_acked + win {
            let size = (self.total_bytes - self.next_seq).min(self.mss as u64) as u32;
            let is_rtx = self.next_seq < self.high_water;
            if is_rtx {
                self.retransmits += 1;
            }
            out.send.push(SendAction {
                seq: self.next_seq,
                size,
                is_rtx,
            });
            self.next_seq += size as u64;
        }
        self.high_water = self.high_water.max(self.next_seq);
    }

    /// Retransmits the segment at the left edge of the window.
    fn retransmit_hole(&mut self, out: &mut TcpOutput) {
        let size = (self.total_bytes - self.cum_acked).min(self.mss as u64) as u32;
        out.send.push(SendAction {
            seq: self.cum_acked,
            size,
            is_rtx: true,
        });
        self.retransmits += 1;
    }

    /// RFC 6298 SRTT/RTTVAR update; resets backoff on a valid sample.
    fn sample_rtt(&mut self, rtt: Ns) {
        let r = rtt as f64;
        match self.srtt_ns {
            None => {
                self.srtt_ns = Some(r);
                self.rttvar_ns = r / 2.0;
            }
            Some(srtt) => {
                self.rttvar_ns = 0.75 * self.rttvar_ns + 0.25 * (srtt - r).abs();
                self.srtt_ns = Some(0.875 * srtt + 0.125 * r);
            }
        }
        let rto = self.srtt_ns.expect("just set") + 4.0 * self.rttvar_ns;
        self.rto_ns = (rto as Ns).max(self.min_rto_ns);
        self.backoff = 0;
    }

    /// Arms (replaces) the RTO timer.
    fn arm_timer(&mut self, now: Ns, out: &mut TcpOutput) {
        self.timer_gen += 1;
        let deadline = now + (self.rto_ns << self.backoff);
        out.set_timer = Some((deadline, self.timer_gen));
    }
}

/// What a go-back-N receiver wants sent back for one data segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GbnSignal {
    /// In-order (or duplicate) data: send this cumulative ACK.
    Ack(u64),
    /// Out-of-order data was discarded: NACK asking for this sequence
    /// (everything before it has been received in order).
    Nack(u64),
}

/// Reassembling receiver for one flow: returns the cumulative ACK to send
/// for every arriving data segment.
#[derive(Debug, Clone, Default)]
pub struct TcpReceiver {
    expected: u64,
    /// Out-of-order byte ranges, keyed by start, value = end (exclusive).
    ooo: BTreeMap<u64, u64>,
    /// All payload bytes that arrived, duplicates included.
    pub received_bytes: u64,
}

impl TcpReceiver {
    /// Creates an empty receiver.
    pub fn new() -> TcpReceiver {
        TcpReceiver::default()
    }

    /// Current cumulative in-order byte count.
    pub fn cum_ack(&self) -> u64 {
        self.expected
    }

    /// Ingests segment `[seq, seq + size)`; returns the new cumulative ACK.
    pub fn on_data(&mut self, seq: u64, size: u32) -> u64 {
        self.received_bytes += size as u64;
        let end = seq + size as u64;
        if end > self.expected {
            // In-order fast path: nothing buffered, segment extends the
            // edge directly — skip the reassembly map entirely. (With an
            // empty map the general path below inserts and immediately
            // drains the same single range, so this is behaviour-neutral.)
            if seq <= self.expected && self.ooo.is_empty() {
                self.expected = end;
                return self.expected;
            }
            // Record the (possibly partially new) range.
            let start = seq.max(self.expected);
            let e = self.ooo.entry(start).or_insert(start);
            *e = (*e).max(end);
            // Advance the in-order edge through contiguous ranges.
            while let Some((&s, &e)) = self.ooo.first_key_value() {
                if s <= self.expected {
                    self.expected = self.expected.max(e);
                    self.ooo.pop_first();
                } else {
                    break;
                }
            }
        }
        self.expected
    }

    /// Go-back-N ingest: only in-order data advances the edge; anything
    /// past the first gap is *discarded* (no reassembly buffer — the
    /// RDMA-style receiver of a lossless fabric) and answered with a NACK
    /// for the gap. Duplicates re-ACK so a lost ACK cannot stall the flow.
    pub fn on_data_gbn(&mut self, seq: u64, size: u32) -> GbnSignal {
        self.received_bytes += size as u64;
        let end = seq + size as u64;
        if seq <= self.expected {
            if end > self.expected {
                self.expected = end;
            }
            GbnSignal::Ack(self.expected)
        } else {
            GbnSignal::Nack(self.expected)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1000;
    const MIN_RTO: Ns = 1_000_000;

    fn sender(bytes: u64) -> TcpSender {
        TcpSender::new(0, bytes, MSS, 2, MIN_RTO)
    }

    #[test]
    fn start_sends_initial_window() {
        let mut s = sender(10_000);
        let out = s.start(0);
        assert_eq!(out.send.len(), 2); // initial cwnd = 2
        assert_eq!(
            out.send[0],
            SendAction {
                seq: 0,
                size: 1000,
                is_rtx: false
            }
        );
        assert_eq!(out.send[1].seq, 1000);
        assert!(out.set_timer.is_some());
        assert!(!out.completed);
    }

    #[test]
    fn small_flow_sends_short_segment() {
        let mut s = sender(700);
        let out = s.start(0);
        assert_eq!(
            out.send,
            vec![SendAction {
                seq: 0,
                size: 700,
                is_rtx: false
            }]
        );
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = sender(1_000_000);
        let o = s.start(0);
        assert_eq!(o.send.len(), 2);
        // Ack both initial segments: cwnd 2 -> 4, window opens by 2 + 2.
        let o = s.on_ack(100, 1000, 0, 0);
        assert_eq!(o.send.len(), 2);
        let o = s.on_ack(110, 2000, 0, 0);
        assert_eq!(o.send.len(), 2);
        assert!((s.cwnd() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn congestion_avoidance_grows_slowly() {
        let mut s = sender(10_000_000);
        s.start(0);
        // Force CA by setting up loss -> recovery -> exit.
        // Easier: drive cwnd past an artificial ssthresh via dup-ack loss.
        // Three dup acks at cum 0:
        for _ in 0..3 {
            s.on_ack(10, 0, 0, 0);
        }
        assert!(s.in_recovery);
        let pre = s.cwnd();
        // Full ACK ends recovery at ssthresh; then one CA ack grows cwnd by
        // ~1/cwnd.
        let recover = s.recover;
        s.on_ack(20, recover, 0, 1);
        let at_exit = s.cwnd();
        assert!(at_exit < pre);
        s.on_ack(30, recover + 1000, 0, 1);
        let grown = s.cwnd();
        assert!(grown > at_exit && grown < at_exit + 1.0 + 1e-9);
    }

    #[test]
    fn fast_retransmit_on_three_dups() {
        let mut s = sender(100_000);
        s.start(0);
        assert_eq!(s.retransmits, 0);
        s.on_ack(10, 0, 0, 0);
        s.on_ack(11, 0, 0, 0);
        let out = s.on_ack(12, 0, 0, 0);
        assert_eq!(s.retransmits, 1);
        assert_eq!(
            out.send[0],
            SendAction {
                seq: 0,
                size: 1000,
                is_rtx: true
            }
        );
        assert!(s.in_recovery);
        // Epoch bumped: old RTT echoes are ignored now.
        assert_eq!(s.epoch(), 1);
    }

    #[test]
    fn partial_ack_retransmits_next_hole() {
        let mut s = sender(100_000);
        s.start(0);
        for _ in 0..3 {
            s.on_ack(10, 0, 0, 0);
        }
        let recover = s.recover;
        // Partial ack: 1000 < recover.
        assert!(recover > 1000);
        let out = s.on_ack(20, 1000, 0, 1);
        assert!(s.in_recovery, "partial ack keeps recovery");
        assert_eq!(
            out.send[0],
            SendAction {
                seq: 1000,
                size: 1000,
                is_rtx: true
            }
        );
    }

    #[test]
    fn timeout_collapses_window_and_backs_off() {
        let mut s = sender(100_000);
        let o = s.start(0);
        let (deadline, gen) = o.set_timer.unwrap();
        assert_eq!(deadline, MIN_RTO);
        let o = s.on_timer(deadline, gen);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(
            o.send[0],
            SendAction {
                seq: 0,
                size: 1000,
                is_rtx: true
            }
        );
        // Backoff doubles the next deadline.
        let (d2, _) = o.set_timer.unwrap();
        assert_eq!(d2, deadline + 2 * MIN_RTO);
    }

    #[test]
    fn rto_enters_loss_recovery_for_whole_window() {
        // A full in-flight window is lost (e.g. a link cut under the
        // flow). After the RTO retransmits the head hole, the hole's
        // *partial* ACK must retransmit the next hole immediately —
        // recovery proceeds at one segment per RTT, not one per RTO.
        let mut s = sender(100_000);
        let o = s.start(0);
        assert_eq!(o.send.len(), 2); // seqs 0 and 1000 — both presumed lost
        let (deadline, gen) = o.set_timer.unwrap();
        let o = s.on_timer(deadline, gen);
        assert_eq!(
            o.send[0],
            SendAction {
                seq: 0,
                size: 1000,
                is_rtx: true
            }
        );
        let o = s.on_ack(deadline + 100, 1000, deadline, 1);
        assert!(
            o.send.iter().any(|a| a.seq == 1000 && a.is_rtx),
            "partial ACK after RTO must retransmit the next hole: {:?}",
            o.send
        );
    }

    #[test]
    fn stale_timer_generations_ignored() {
        let mut s = sender(100_000);
        let o = s.start(0);
        let (_, gen) = o.set_timer.unwrap();
        // A new ack re-arms the timer, invalidating `gen`.
        s.on_ack(10, 1000, 0, 0);
        let out = s.on_timer(999_999_999, gen);
        assert!(out.send.is_empty());
        assert_eq!(s.timeouts, 0);
    }

    #[test]
    fn completion_on_final_ack() {
        let mut s = sender(2500);
        let o = s.start(0);
        assert_eq!(o.send.len(), 2); // 1000 + 1000 (cwnd 2)
        let o = s.on_ack(10, 2000, 0, 0);
        assert_eq!(o.send.len(), 1); // final 500
        assert!(!o.completed);
        let o = s.on_ack(20, 2500, 0, 0);
        assert!(o.completed);
        assert!(s.is_complete());
        // Further acks are no-ops.
        let o = s.on_ack(30, 2500, 0, 0);
        assert_eq!(o, TcpOutput::default());
    }

    #[test]
    fn rtt_sampling_sets_rto() {
        let mut s = sender(100_000);
        s.start(0);
        s.on_ack(500_000, 1000, 400_000, 0); // 100 us RTT
                                             // SRTT = 100us, RTTVAR = 50us → RTO = 300us, floored to MIN_RTO.
        assert_eq!(s.rto_ns, MIN_RTO);
        let mut s2 = TcpSender::new(0, 100_000, MSS, 2, 1000);
        s2.start(0);
        s2.on_ack(500_000, 1000, 400_000, 0);
        assert_eq!(s2.rto_ns, 300_000);
    }

    #[test]
    fn karn_rule_skips_retransmitted_epochs() {
        let mut s = sender(100_000);
        s.start(0);
        for _ in 0..3 {
            s.on_ack(10, 0, 0, 0); // enter recovery, epoch -> 1
        }
        let rto_before = s.rto_ns;
        // Echo from epoch 0 must not produce a sample.
        s.on_ack(5_000_000, 3000, 0, 0);
        assert_eq!(s.rto_ns, rto_before);
        assert!(s.srtt_ns.is_none());
    }

    // ---- DCTCP ----

    fn dctcp(bytes: u64) -> TcpSender {
        TcpSender::with_transport(0, bytes, MSS, 2, MIN_RTO, crate::types::Transport::Dctcp)
    }

    #[test]
    fn dctcp_alpha_rises_under_persistent_marks() {
        let mut s = dctcp(10_000_000);
        s.start(0);
        // Ack windows with every byte marked: alpha -> 1 geometrically.
        let mut t = 0;
        for _ in 0..64 {
            t += 10;
            let ack = s.acked() + 1000;
            s.on_ack_ecn(t, ack, t - 5, 0, true);
        }
        assert!(s.dctcp_alpha() > 0.5, "alpha {}", s.dctcp_alpha());
        // And cwnd stays small despite all those acks.
        assert!(s.cwnd() < 8.0, "cwnd {}", s.cwnd());
    }

    #[test]
    fn dctcp_without_marks_behaves_like_newreno_growth() {
        let mut a = dctcp(1_000_000);
        let mut b = sender(1_000_000);
        a.start(0);
        b.start(0);
        for i in 1..=20u64 {
            a.on_ack_ecn(i * 10, i * 1000, i * 10 - 5, 0, false);
            b.on_ack(i * 10, i * 1000, i * 10 - 5, 0);
        }
        assert_eq!(a.dctcp_alpha(), 0.0);
        assert!((a.cwnd() - b.cwnd()).abs() < 1e-9);
    }

    #[test]
    fn dctcp_cut_is_proportional_to_alpha() {
        // One fully-marked window after alpha has converged high cuts
        // cwnd by ~alpha/2; a lightly marked one cuts less.
        let mut s = dctcp(100_000_000);
        s.start(0);
        let mut t = 0;
        // Grow cwnd mark-free first.
        for i in 1..=30u64 {
            t = i * 10;
            s.on_ack_ecn(t, i * 1000, t - 5, 0, false);
        }
        let before = s.cwnd();
        // A long marked stretch: several window closes compound the cut.
        for j in 1..=100u64 {
            let ack = 30_000 + j * 1000;
            t += 10;
            s.on_ack_ecn(t, ack, t - 5, 0, true);
        }
        let after = s.cwnd();
        assert!(after < before, "{after} !< {before}");
        // NewReno in the same situation would not have reacted at all.
        let mut n = sender(100_000_000);
        n.start(0);
        for i in 1..=130u64 {
            n.on_ack(i * 10, i * 1000, i * 10 - 5, 0);
        }
        assert!(n.cwnd() > after);
    }

    // ---- go-back-N ----

    fn gbn(bytes: u64) -> TcpSender {
        TcpSender::with_transport(0, bytes, MSS, 4, MIN_RTO, crate::types::Transport::GoBackN)
    }

    #[test]
    fn gbn_window_is_fixed() {
        let mut s = gbn(1_000_000);
        let o = s.start(0);
        assert_eq!(o.send.len(), 4); // ConstCwnd(4)
        assert_eq!(s.cwnd(), 4.0);
        let o = s.on_ack(10, 1000, 0, 0);
        // One segment acked opens exactly one slot: no growth ever.
        assert_eq!(o.send.len(), 1);
        assert_eq!(s.cwnd(), 4.0);
    }

    #[test]
    fn gbn_nack_rolls_back_and_resends_window() {
        let mut s = gbn(1_000_000);
        s.start(0); // seqs 0..4000 in flight, epoch 0
        s.on_ack(10, 1000, 0, 0); // cum 1000, sends seq 4000
                                  // Segment 1000 lost; receiver NACKs 1000 on seeing 2000 (epoch 0).
        let o = s.on_nack(20, 1000, 0);
        assert_eq!(s.epoch(), 1, "rollback bumps the epoch");
        // Window = 4 segs from cum 1000: 1000..5000, all retransmissions
        // except the never-sent 5000... high water was 5000, so all 4 rtx.
        assert_eq!(o.send.len(), 4);
        assert_eq!(
            o.send[0],
            SendAction {
                seq: 1000,
                size: 1000,
                is_rtx: true
            }
        );
        assert!(o.send.iter().take(4).all(|a| a.is_rtx));
        assert_eq!(s.retransmits, 4);
        assert!(o.set_timer.is_some());
    }

    #[test]
    fn gbn_stale_nacks_are_ignored() {
        let mut s = gbn(1_000_000);
        s.start(0);
        s.on_nack(10, 0, 0); // first NACK: rollback, epoch -> 1
        let rtx = s.retransmits;
        // More NACKs from the same pre-rollback burst carry epoch 0.
        let o = s.on_nack(11, 1000, 0);
        assert!(o.send.is_empty(), "stale NACK must not roll back again");
        assert_eq!(s.retransmits, rtx);
        // A NACK for data the sender never sent is ignored too.
        let o = s.on_nack(12, 999_999_999, 1);
        assert!(o.send.is_empty());
    }

    #[test]
    fn gbn_timeout_resends_from_cum_ack_without_collapsing() {
        let mut s = gbn(1_000_000);
        let o = s.start(0);
        let (deadline, gen) = o.set_timer.unwrap();
        let o = s.on_timer(deadline, gen);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.cwnd(), 4.0, "fixed window never collapses");
        assert_eq!(o.send.len(), 4, "whole window resent from cum ack");
        assert!(o.send.iter().all(|a| a.is_rtx));
        let (d2, _) = o.set_timer.unwrap();
        assert_eq!(d2, deadline + 2 * MIN_RTO, "backoff still doubles");
    }

    #[test]
    fn gbn_ignores_dup_acks() {
        let mut s = gbn(1_000_000);
        s.start(0);
        for _ in 0..5 {
            let o = s.on_ack(10, 0, 0, 0);
            assert!(o.send.is_empty());
        }
        assert!(!s.in_recovery, "go-back-N has no fast-retransmit recovery");
        assert_eq!(s.retransmits, 0);
    }

    #[test]
    fn gbn_completes() {
        let mut s = gbn(2500);
        s.start(0);
        let o = s.on_ack(10, 2500, 0, 0);
        assert!(o.completed);
        // NACKs after completion are no-ops.
        let o = s.on_nack(20, 0, 0);
        assert_eq!(o, TcpOutput::default());
    }

    #[test]
    fn gbn_receiver_discards_out_of_order_and_nacks() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.on_data_gbn(0, 1000), GbnSignal::Ack(1000));
        // Gap at 1000: the 2000 segment is discarded, NACK names the gap.
        assert_eq!(r.on_data_gbn(2000, 1000), GbnSignal::Nack(1000));
        assert_eq!(r.cum_ack(), 1000);
        // Retransmission fills the gap in order; the discarded segment
        // must be resent too (nothing was buffered).
        assert_eq!(r.on_data_gbn(1000, 1000), GbnSignal::Ack(2000));
        assert_eq!(r.on_data_gbn(2000, 1000), GbnSignal::Ack(3000));
        // Duplicates re-ACK.
        assert_eq!(r.on_data_gbn(0, 1000), GbnSignal::Ack(3000));
    }

    // ---- receiver ----

    #[test]
    fn receiver_in_order() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.on_data(0, 1000), 1000);
        assert_eq!(r.on_data(1000, 1000), 2000);
        assert_eq!(r.received_bytes, 2000);
    }

    #[test]
    fn receiver_out_of_order_holds_ack() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.on_data(1000, 1000), 0);
        assert_eq!(r.on_data(3000, 1000), 0);
        // Filling the first hole releases through the contiguous range.
        assert_eq!(r.on_data(0, 1000), 2000);
        assert_eq!(r.on_data(2000, 1000), 4000);
    }

    #[test]
    fn receiver_ignores_duplicates_for_ack_but_counts_bytes() {
        let mut r = TcpReceiver::new();
        r.on_data(0, 1000);
        assert_eq!(r.on_data(0, 1000), 1000);
        assert_eq!(r.received_bytes, 2000);
    }

    #[test]
    fn receiver_merges_overlapping_ranges() {
        let mut r = TcpReceiver::new();
        r.on_data(500, 1000); // [500,1500)
        r.on_data(1200, 1000); // [1200,2200) overlaps
        assert_eq!(r.on_data(0, 500), 2200);
    }
}
