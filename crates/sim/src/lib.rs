//! Packet-level discrete-event network simulator — the workspace's stand-in
//! for the htsim simulator the paper uses (§5.3: "htsim-based packet level
//! simulator ... configured with TCP and 10Gbps links").
//!
//! The model, matching htsim's abstraction level:
//!
//! * every cable is a pair of directed links, each with a fixed rate,
//!   propagation delay and a drop-tail output queue;
//! * servers hang off their ToR through dedicated server links (same rate),
//!   so rack over-subscription and incast are modelled physically;
//! * switches forward hop-by-hop over a
//!   [`ForwardingState`](spineless_routing::ForwardingState) — per-flow
//!   ECMP hashing over the (possibly VRF-expanded) next-hop sets, so ECMP
//!   and Shortest-Union(K) run through identical machinery;
//! * transport is TCP NewReno (slow start, AIMD congestion avoidance, fast
//!   retransmit/recovery on three duplicate ACKs, RTO with exponential
//!   backoff and RTT estimation per RFC 6298);
//! * everything is deterministic given the seed: the event queue breaks
//!   time ties by each event's content rank (its class, then the flow or
//!   link it concerns) and ECMP hashes derive from the seed. The default
//!   scheduler keeps per-delay FIFO lanes in front of a heap
//!   ([`equeue::DelayLanes`]); because event order is a total order on
//!   `(time, content rank)`, the reference heap scheduler
//!   ([`types::Scheduler::ReferenceHeap`]) produces byte-identical
//!   results;
//! * one engine, [`engine::Simulation`], on one or more cores: at its
//!   first run it picks a shard count ([`shard::choose_engine`], or the
//!   one [`Simulation::set_shards`] pinned). One shard is the serial
//!   event loop; more partition the fabric into lookahead domains that
//!   run the same loop — one datapath, one scheduling sink per shard, one
//!   failure agenda — in conservative windows on a thread each
//!   ([`shard`]), so at any shard count the report is the serial one
//!   exactly, event count included, which the determinism tests assert.
//!
//! See the crate examples and `spineless-core` for how the paper's
//! experiments drive it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cong;
mod datapath;
pub mod engine;
pub mod equeue;
#[cfg(test)]
mod equiv;
pub mod failure;
pub mod hybrid;
pub mod link;
pub mod packet;
pub mod shard;
pub mod tcp;
pub mod types;

pub use cong::{CongAlg, ConstCwnd, Dctcp, NewReno};
pub use engine::Simulation;
pub use equeue::{DelayLanes, EventQueue, HeapQueue, TimerWheel};
pub use failure::{FailureEvent, FailureSchedule};
pub use hybrid::{HybridConfig, HybridReport, HybridSimulation};
pub use shard::{choose_engine, estimate_events};
pub use types::{Datapath, FlowId, FlowRecord, PfcConfig, Scheduler, SimConfig, SimReport};
