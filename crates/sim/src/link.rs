//! Directed links with drop-tail output queues.
//!
//! A directed link serializes one packet at a time at its fixed rate; while
//! busy, arriving packets wait in a byte-bounded FIFO and overflow is
//! dropped at the tail — the standard commodity-switch output-queue model
//! htsim uses.

use crate::packet::Packet;
use crate::types::Ns;
use std::collections::VecDeque;

/// State of one directed link's output port.
#[derive(Debug, Clone, Default)]
pub struct LinkQueue {
    /// Waiting packets (head is next to transmit).
    queue: VecDeque<Packet>,
    /// Bytes currently waiting (excludes the packet being serialized).
    queued_bytes: u64,
    /// `true` while a packet is on the wire.
    busy: bool,
    /// Fast datapath only: the time of this link's *elided* terminal
    /// `TxDone` event. When a transmission starts with an empty queue
    /// behind it, the engine records the event's time here instead of
    /// scheduling it; the event is materialized (its key is fixed by its
    /// time and link) only if a packet queues up behind the wire, and
    /// resolved lazily to an idle transition otherwise. `None` in the
    /// reference datapath and whenever a real `TxDone` event is pending.
    pub(crate) pending_txdone: Option<Ns>,
    /// PFC: `true` while the far end has this direction paused (XOFF
    /// received, no XON yet). A paused port finishes the packet on the
    /// wire but starts no new transmission; the queue keeps filling.
    paused: bool,
    /// Packets dropped at this queue.
    pub drops: u64,
    /// Packets dropped specifically at a *full queue* (tail drops), a
    /// subset of `drops` — the rest are dead-link flushes. PFC's lossless
    /// invariant is about this counter.
    pub tail_drops: u64,
    /// Total bytes ever accepted for transmission (utilization accounting).
    pub tx_bytes: u64,
}

/// What [`LinkQueue::offer`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The link was idle: start serializing this packet now.
    StartTx,
    /// The link was busy: the packet is queued.
    Queued,
    /// The queue was full: the packet is gone.
    Dropped,
}

impl LinkQueue {
    /// Creates an idle, empty queue.
    pub fn new() -> LinkQueue {
        LinkQueue::default()
    }

    /// Offers a packet to the port. `cap_bytes` is the drop-tail limit on
    /// *waiting* bytes; `ecn_threshold` (if set) marks the packet when the
    /// backlog at arrival is at or above it (DCTCP's instantaneous-queue
    /// marking).
    pub fn offer(&mut self, mut pkt: Packet, cap_bytes: u64, ecn_threshold: Option<u64>) -> Offer {
        if let Some(k) = ecn_threshold {
            if self.queued_bytes >= k {
                pkt.ecn = true;
            }
        }
        if !self.busy && !self.paused {
            debug_assert!(self.queue.is_empty());
            self.busy = true;
            self.tx_bytes += pkt.size as u64;
            Offer::StartTx
        } else if self.queued_bytes + pkt.size as u64 <= cap_bytes {
            self.queued_bytes += pkt.size as u64;
            self.queue.push_back(pkt);
            Offer::Queued
        } else {
            self.drops += 1;
            self.tail_drops += 1;
            Offer::Dropped
        }
    }

    /// The wire finished serializing: dequeue the next packet to transmit,
    /// if any. Returns `None` (and goes idle) when the queue is empty —
    /// or, under PFC, when the port is paused: the wire drains but no new
    /// serialization starts until [`resume`](LinkQueue::resume).
    pub fn tx_done(&mut self) -> Option<Packet> {
        debug_assert!(self.busy);
        if self.paused {
            self.busy = false;
            return None;
        }
        match self.queue.pop_front() {
            Some(p) => {
                self.queued_bytes -= p.size as u64;
                self.tx_bytes += p.size as u64;
                Some(p)
            }
            None => {
                self.busy = false;
                None
            }
        }
    }

    /// PFC XOFF: stop starting new transmissions. The packet on the wire
    /// (if any) finishes — pausing mid-serialization is not a thing real
    /// PFC does either.
    pub fn pause(&mut self) {
        self.paused = true;
    }

    /// PFC XON: re-open the port. If the wire is idle and packets queued
    /// up while paused, pops the head to start serializing (the caller
    /// schedules its `TxDone`); returns `None` if the wire is still busy
    /// (the normal `tx_done` chain takes over) or nothing is waiting.
    pub fn resume(&mut self) -> Option<Packet> {
        self.paused = false;
        if self.busy {
            return None;
        }
        match self.queue.pop_front() {
            Some(p) => {
                self.queued_bytes -= p.size as u64;
                self.tx_bytes += p.size as u64;
                self.busy = true;
                Some(p)
            }
            None => None,
        }
    }

    /// Whether the far end currently has this port paused.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// The waiting packets, head (next to transmit) first. PFC's dead-link
    /// discharge walks this before flushing.
    pub(crate) fn iter_queued(&self) -> impl Iterator<Item = &Packet> {
        self.queue.iter()
    }

    /// Fast datapath: resolves an elided terminal `TxDone` — the wire
    /// finished with nothing queued behind it, so the port simply goes
    /// idle. Exactly the `tx_done() == None` transition of the reference
    /// path, without the event round-trip.
    pub(crate) fn go_idle(&mut self) {
        debug_assert!(self.busy && self.queue.is_empty());
        self.busy = false;
    }

    /// The cable died: every waiting packet is lost (charged to this
    /// queue's `drops`). The wire/busy state is untouched — the packet
    /// being serialized is handled by the engine's in-flight drop rule,
    /// and an already-scheduled `TxDone` simply finds an empty queue and
    /// idles the port. Returns how many packets were flushed.
    pub fn flush_dead(&mut self) -> u64 {
        let n = self.queue.len() as u64;
        self.queue.clear();
        self.queued_bytes = 0;
        self.drops += n;
        n
    }

    /// Whether any packet waits behind the wire (the in-flight packet,
    /// if any, does not count).
    pub fn has_queued(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Bytes waiting behind the wire (not counting the in-flight packet).
    pub fn backlog_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Whether a packet is currently being serialized.
    pub fn is_busy(&self) -> bool {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(size: u32) -> Packet {
        Packet::data(0, 0, size, 0, 0, 0, 0, 0)
    }

    #[test]
    fn idle_link_starts_immediately() {
        let mut q = LinkQueue::new();
        assert_eq!(q.offer(pkt(1500), 3000, None), Offer::StartTx);
        assert!(q.is_busy());
        assert_eq!(q.backlog_bytes(), 0);
        assert_eq!(q.tx_bytes, 1500);
    }

    #[test]
    fn busy_link_queues_until_full() {
        let mut q = LinkQueue::new();
        assert_eq!(q.offer(pkt(1500), 3000, None), Offer::StartTx);
        assert_eq!(q.offer(pkt(1500), 3000, None), Offer::Queued);
        assert_eq!(q.offer(pkt(1500), 3000, None), Offer::Queued);
        assert_eq!(q.backlog_bytes(), 3000);
        // Fourth exceeds the 3000-byte cap.
        assert_eq!(q.offer(pkt(1500), 3000, None), Offer::Dropped);
        assert_eq!(q.drops, 1);
    }

    #[test]
    fn small_packet_fits_when_big_does_not() {
        let mut q = LinkQueue::new();
        q.offer(pkt(1500), 2000, None);
        q.offer(pkt(1500), 2000, None);
        assert_eq!(q.offer(pkt(1500), 2000, None), Offer::Dropped);
        assert_eq!(q.offer(pkt(400), 2000, None), Offer::Queued);
        assert_eq!(q.backlog_bytes(), 1900);
    }

    #[test]
    fn flush_dead_drops_waiting_packets_only() {
        let mut q = LinkQueue::new();
        q.offer(pkt(100), 10_000, None); // on the wire
        q.offer(pkt(200), 10_000, None);
        q.offer(pkt(300), 10_000, None);
        assert_eq!(q.flush_dead(), 2);
        assert_eq!(q.drops, 2);
        assert_eq!(q.backlog_bytes(), 0);
        assert!(q.is_busy(), "the in-flight packet is the engine's problem");
        // tx_bytes counts only what reached the wire.
        assert_eq!(q.tx_bytes, 100);
        assert!(q.tx_done().is_none());
    }

    #[test]
    fn paused_port_queues_and_resume_restarts() {
        let mut q = LinkQueue::new();
        q.pause();
        assert!(q.is_paused());
        // Offers while paused+idle queue instead of starting.
        assert_eq!(q.offer(pkt(100), 10_000, None), Offer::Queued);
        assert_eq!(q.offer(pkt(200), 10_000, None), Offer::Queued);
        assert!(!q.is_busy());
        assert_eq!(q.backlog_bytes(), 300);
        // Resume pops the head and starts serializing it.
        let head = q.resume().unwrap();
        assert_eq!(head.size, 100);
        assert!(q.is_busy());
        assert_eq!(q.backlog_bytes(), 200);
        assert_eq!(q.tx_bytes, 100);
    }

    #[test]
    fn pause_lets_wire_finish_then_holds() {
        let mut q = LinkQueue::new();
        q.offer(pkt(100), 10_000, None); // on the wire
        q.offer(pkt(200), 10_000, None); // queued
        q.pause();
        // The in-flight packet finishes but the next one is NOT started.
        assert!(q.tx_done().is_none());
        assert!(!q.is_busy());
        assert_eq!(q.backlog_bytes(), 200);
        // Resume while idle starts the held packet.
        assert_eq!(q.resume().unwrap().size, 200);
        assert!(q.is_busy());
    }

    #[test]
    fn resume_while_busy_is_a_noop() {
        let mut q = LinkQueue::new();
        q.offer(pkt(100), 10_000, None);
        q.offer(pkt(200), 10_000, None);
        q.pause();
        q.pause(); // idempotent
        assert!(
            q.resume().is_none(),
            "wire still busy: tx_done chain owns it"
        );
        assert!(!q.is_paused());
        // Normal drain resumes.
        assert_eq!(q.tx_done().unwrap().size, 200);
    }

    #[test]
    fn tail_drops_counts_full_queue_only() {
        let mut q = LinkQueue::new();
        q.offer(pkt(1500), 1500, None);
        q.offer(pkt(1500), 1500, None);
        assert_eq!(q.offer(pkt(1500), 1500, None), Offer::Dropped);
        assert_eq!(q.tail_drops, 1);
        assert_eq!(q.flush_dead(), 1);
        assert_eq!(q.drops, 2, "flush charges drops...");
        assert_eq!(q.tail_drops, 1, "...but not tail_drops");
    }

    #[test]
    fn tx_done_drains_fifo_then_idles() {
        let mut q = LinkQueue::new();
        q.offer(pkt(100), 10_000, None);
        let mut second = pkt(200);
        second.seq = 42;
        q.offer(second, 10_000, None);
        let nxt = q.tx_done().unwrap();
        assert_eq!(nxt.seq, 42);
        assert!(q.is_busy());
        assert!(q.tx_done().is_none());
        assert!(!q.is_busy());
        assert_eq!(q.tx_bytes, 300);
    }
}
