//! Routing schemes for flat data-center networks, reproducing §4 of
//! *Spineless Data Centers*.
//!
//! The paper evaluates two schemes, both implementable on stock switches:
//!
//! * **ECMP** — standard shortest-path routing with equal-cost multipath
//!   forwarding.
//! * **Shortest-Union(K)** — between two ToRs, use every path that is either
//!   a shortest path or has length ≤ K. Realized on standard hardware by
//!   expanding each router into K VRFs and running plain eBGP shortest-path
//!   routing over the resulting *VRF graph* with per-link AS-path
//!   prepending; Theorem 1 shows the VRF-graph distance between the host
//!   VRFs of routers at physical distance `L` is `max(L, K)`.
//!
//! Modules:
//!
//! * [`vrf`] — the VRF-graph construction and Theorem 1 machinery;
//! * [`fib`] — unified forwarding state ([`ForwardingState`]) for both
//!   schemes (ECMP is the `K = 1` degenerate VRF graph), consumed by the
//!   packet simulator and the fluid model;
//! * [`bgp`] — a distributed eBGP control-plane simulator (path-vector
//!   advertisements, AS-path loop prevention, prepending, multipath) that
//!   converges to the same FIBs — our stand-in for the paper's GNS3 / Cisco
//!   7200 prototype;
//! * [`diversity`] — path-diversity measurements behind the paper's claim
//!   that Shortest-Union(2) exposes ≥ n+1 disjoint paths between any two
//!   DRing racks;
//! * [`adaptive`] — coarse-grained adaptive routing (§7 future work): both
//!   planes provisioned, the source ToR picking ECMP or Shortest-Union per
//!   destination from a static topology-derived rule;
//! * [`failures`] — failure injection and reconvergence analysis (§7
//!   future work): degraded topologies, route stretch, diversity loss, and
//!   BGP reconvergence rounds;
//! * [`configgen`] — the paper's "simple script" that emits per-router
//!   BGP/VRF configurations (FRR dialect) realizing Shortest-Union(K) on
//!   stock switches, generated from the same VRF graph the analysis uses;
//! * [`vlb`] — flow-level Valiant load balancing, the §2 baseline the
//!   expander literature uses for skewed traffic, as a comparison plane.
//!
//! # A note on the paper's rule listing
//!
//! The HotNets text lists the virtual-connection rules with VRF indices
//! that do not type-check against the proof of Theorem 1 (the proof's
//! cost-`K` witness path *ascends* VRF levels towards the destination's
//! host VRF, while the listed rule 2 descends). We implement the
//! reconstruction that makes the proof go through — see
//! [`vrf::VrfGraph::build`] — and verify Theorem 1 exhaustively in tests
//! and property tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod bgp;
pub mod configgen;
pub mod diversity;
pub mod failures;
pub mod fib;
pub mod vlb;
pub mod vrf;

pub use adaptive::DualPlane;
pub use fib::{FibCache, Forwarding, ForwardingState, RoutingScheme};
pub use vlb::Vlb;
pub use vrf::VrfGraph;
