//! Max-min fair fluid-flow throughput model.
//!
//! The paper's C-S throughput study (§6.2, Fig. 5) uses long-running flows,
//! "similar to the setup in Jellyfish". For long-lived TCP flows the
//! classic abstraction is fluid max-min fairness: every flow is pinned to
//! one route (the path its five-tuple hashes onto), link capacities are
//! normalized to 1, and rates are the unique max-min fair allocation —
//! computed by progressive filling.
//!
//! Two kernels compute the filling, bit-identical to the full-scan
//! [`max_min_rates_reference`]; the caller picks by what it needs back:
//!
//! - [`max_min_rates`] returns rates only. It visits links in the order
//!   they saturate and replays a link's exact load only near its
//!   saturation. One-shot solves use it: [`solve`] (Fig. 5, the
//!   throughput study and the design sweep).
//! - [`max_min_rates_with`] also reports every link's load
//!   ([`FluidScratch::link_used`]) and reuses its buffers across calls.
//!   The hybrid engine's re-solves use it: they hand each link's residual
//!   capacity to the packet plane.
//!
//! [`solve`] glues the pieces: it samples one route per demand exactly the
//! way per-flow ECMP hashing would (uniform per-hop next-hop choice over the
//! `ForwardingState`), expands routes to directed-link index sets —
//! including the server up/downlinks, so NIC bottlenecks (incast/outcast
//! corners of the C-S heatmap) are captured — and runs the filling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod links;
pub mod solver;

pub use links::LinkSpace;
pub use solver::{
    max_min_rates, max_min_rates_reference, max_min_rates_with, max_min_reference, solve,
    FluidScratch, FluidSolution,
};
