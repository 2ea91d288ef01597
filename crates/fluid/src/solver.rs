//! Progressive-filling max-min fair rate allocation.
//!
//! Two kernels compute the same allocation, bit for bit, as
//! [`max_min_rates_reference`]. Which one serves a call follows from what
//! the caller asks for:
//!
//! - [`max_min_rates`] returns rates only. It visits links in the order
//!   they can saturate and replays a link's exact load only when it might
//!   be the round's bottleneck or might saturate.
//! - [`max_min_rates_with`] also returns every link's load
//!   ([`FluidScratch::link_used`]), so it makes every add the reference
//!   makes, link-major, on reused buffers.

use crate::links::LinkSpace;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spineless_routing::Forwarding;
use spineless_topo::Topology;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A link counts as saturated once `used + EPS >= cap`, in every kernel.
const EPS: f64 = 1e-12;

/// Freeze round of a flow that has not frozen.
const LIVE: u32 = u32::MAX;

/// Computes the max-min fair allocation for `flows` over `num_links`
/// directed links with capacities `cap`.
///
/// Each flow is a list of link indices it traverses. Progressive filling:
/// raise all unfrozen flows at the same rate until some link saturates,
/// freeze the flows crossing it, repeat. Exact for this model.
///
/// Flows with an empty link list (same-server transfers) get `f64::INFINITY`.
///
/// The kernel visits links in the order they saturate and returns the
/// same bits as [`max_min_rates_reference`]. Per round:
///
/// - **Levels.** A heap holds each active link's saturation level
///   `(cap − frozen load) / active`: the common rate of its unfrozen
///   flows at which it fills, where the frozen load sums the rates of
///   its frozen route entries. A freeze on the link changes its level, so
///   its key goes stale and is recomputed, in O(1), when it reaches the
///   top.
/// - **Increment.** Every link keyed within δ of the smallest fresh key
///   is a candidate. Its exact load is replayed: the reference's
///   `active[l]` sequential `used += inc` per past round, with each
///   round's `active` recovered from the rounds its flows froze in, so no
///   per-link log is kept. The increment is the min of `headroom /
///   active` over the candidates: the reference's quotients on the
///   reference's loads.
/// - **Saturation.** After `filled += inc`, every link keyed within
///   `EPS + δ` of `filled` is replayed through this round and tested with
///   the reference's `used + EPS >= cap`. The flows on the saturated
///   links freeze at `rate = filled`.
///
/// δ (`tie_window`) bounds the rounding between a key and the exact
/// quantities the reference compares, so the candidates always hold the
/// reference's bottleneck and the window every link it saturates. A
/// wider δ would only add candidates. Each add is replayed at most once,
/// and only on links that came within δ of a saturation.
///
/// # Panics
///
/// Panics if a flow references a link `>= num_links` or a capacity is
/// non-positive while used.
pub fn max_min_rates(num_links: usize, cap: &[f64], flows: &[Vec<u32>]) -> Vec<f64> {
    assert_eq!(cap.len(), num_links);
    let mut rate = Vec::new();
    let mut incidence = Incidence::default();
    let mut live = incidence.build(num_links, flows, &mut rate);
    let Incidence {
        mut active,
        start,
        crossing,
    } = incidence;
    let mut c_max = 0.0f64;
    let mut entries_max = 0u32;
    let mut heap = Vec::new();
    for (l, &a) in active.iter().enumerate() {
        if a > 0 {
            assert!(cap[l] > 0.0, "used link {l} has no capacity");
            c_max = c_max.max(cap[l]);
            entries_max = entries_max.max(a);
            heap.push(keyed(level(cap[l], 0.0, a), l));
        }
    }
    let max_rounds = heap.len();
    let delta = tie_window(c_max, entries_max, max_rounds);
    let mut levels = Levels {
        heap: BinaryHeap::from(heap),
        keyed_at: active.clone(),
        frozen_load: vec![0.0; num_links],
    };
    let mut frozen_at = vec![LIVE; flows.len()];
    let mut loads = Loads {
        used: vec![0.0; num_links],
        replayed: vec![0; num_links],
        incs: vec![0.0],
        froze: Vec::new(),
    };
    let mut near = Vec::new();
    let mut saturated = Vec::new();
    let mut filled = 0.0f64;
    let mut round = 0u32;
    while live > 0 {
        round += 1;
        check_rounds(round as usize, max_rounds, live);
        let top = levels.fresh_top(cap, &active);
        let past = Past {
            start: &start,
            crossing: &crossing,
            frozen_at: &frozen_at,
        };
        // Candidates for this round's bottleneck, replayed through the
        // last round; the increment is the reference's min over them.
        let mut inc = f64::INFINITY;
        near.clear();
        levels.pop_below(top + delta, cap, &active, &mut near);
        for &l in &near {
            let l = l as usize;
            loads.replay(l, round - 1, active[l], &past);
            inc = inc.min((cap[l] - loads.used[l]).max(0.0) / active[l] as f64);
        }
        debug_assert!(inc.is_finite(), "active flows but no constraining link");
        filled += inc;
        loads.incs.push(inc);
        // Every link that can saturate this round, tested exactly.
        levels.pop_below(filled + EPS + delta, cap, &active, &mut near);
        saturated.clear();
        for &l in &near {
            let l = l as usize;
            loads.replay(l, round, active[l], &past);
            if loads.used[l] + EPS >= cap[l] {
                saturated.push(l);
            } else {
                levels.push(l, cap[l], active[l]);
            }
        }
        for &l in &saturated {
            for &i in &crossing[start[l] as usize..start[l + 1] as usize] {
                let i = i as usize;
                if frozen_at[i] == LIVE {
                    frozen_at[i] = round;
                    rate[i] = filled;
                    live -= 1;
                    for &m in &flows[i] {
                        active[m as usize] -= 1;
                        levels.frozen_load[m as usize] += filled;
                    }
                }
            }
        }
    }
    rate
}

/// Saturation level of a link: the rate its `active` unfrozen route
/// entries reach together when the link fills, given the load its frozen
/// entries hold. Clamped at 0, so keys never go negative.
fn level(cap: f64, frozen_load: f64, active: u32) -> f64 {
    (cap - frozen_load).max(0.0) / active as f64
}

/// Heap entry for a link at `level`. Levels are never negative or NaN, so
/// their bit patterns order as the values do.
fn keyed(level: f64, l: usize) -> Reverse<(u64, u32)> {
    Reverse((level.to_bits(), l as u32))
}

/// [`max_min_rates`]'s heap of link levels, keyed lazily: a freeze on a
/// link leaves its key stale until the key is next looked at.
struct Levels {
    /// One entry per link that still carried unfrozen flows when keyed.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// `active[l]` when `l`'s key was computed: the key is fresh while the
    /// count still equals it.
    keyed_at: Vec<u32>,
    /// Sum of the rates of each link's frozen route entries.
    frozen_load: Vec<f64>,
}

impl Levels {
    /// Keys link `l` at its current level.
    fn push(&mut self, l: usize, cap: f64, active: u32) {
        self.keyed_at[l] = active;
        let key = level(cap, self.frozen_load[l], active);
        self.heap.push(keyed(key, l));
    }

    /// Pops the top entry and returns its link if it is fresh. A stale one
    /// is re-keyed and a link whose flows have all frozen dropped.
    fn pop_fresh(&mut self, cap: &[f64], active: &[u32]) -> Option<usize> {
        let Reverse((_, l)) = self.heap.pop()?;
        let l = l as usize;
        match active[l] {
            0 => None,
            a if a == self.keyed_at[l] => Some(l),
            a => {
                self.push(l, cap[l], a);
                None
            }
        }
    }

    /// The smallest fresh key. Refreshes stale keys on the way.
    fn fresh_top(&mut self, cap: &[f64], active: &[u32]) -> f64 {
        loop {
            let Reverse((bits, l)) = *self.heap.peek().expect("active flows but no active link");
            if active[l as usize] == self.keyed_at[l as usize] {
                return f64::from_bits(bits);
            }
            self.pop_fresh(cap, active);
        }
    }

    /// Pops every link whose fresh key is at most `bound` into `out`.
    fn pop_below(&mut self, bound: f64, cap: &[f64], active: &[u32], out: &mut Vec<u32>) {
        while let Some(&Reverse((bits, _))) = self.heap.peek() {
            if f64::from_bits(bits) > bound {
                break;
            }
            if let Some(l) = self.pop_fresh(cap, active) {
                out.push(l as u32);
            }
        }
    }
}

/// Width δ of [`max_min_rates`]'s candidate and saturation windows: a
/// worst-case bound on how far a heap key can sit from the exact
/// quantities the reference compares. The solve's used links have
/// capacities up to `c_max` and at most `E = entries_max` route entries
/// each, and it takes at most `R = max_rounds` rounds.
///
/// Every value the solve computes (loads, `filled`, rates, frozen loads,
/// quotients, keys, window bounds) stays below `M = 4 (c_max + EPS)`, so
/// each f64 operation rounds by at most `u = ulp(M) / 2`. A link takes at
/// most `N = E R` adds. Measured against the same sums of the same
/// increments taken in exact arithmetic:
///
/// - `filled` is off by at most `R u` and a load by `N u`, so the
///   reference's quantity `filled + (cap − used) / active` is off by
///   `(R + N + 2) u` from the link's exact level (a link still active has
///   `used < cap`, so the clamp at 0 never binds there);
/// - a key sums at most `E` frozen rates, each off by `R u`, so it is off
///   by `(N + E + 2) u`;
/// - an exact level holds while `active` does, and a freeze lowers it by
///   at most `N u` overall (only when its exact load has passed `cap`),
///   so a stale key is at most that much further above it.
///
/// The reference's bottleneck then has a key at most
/// `(2R + 5N + 2E + 8) u` above the smallest fresh key, and a link that
/// saturates has one at most `(R + 3N + E + 3) u` above `filled + EPS`.
/// Rounding a window's bound costs at most `2u` more, so
/// `δ = (2R + 5N + 2E + 10) u` covers both. An infinite capacity makes δ
/// infinite, and every active link a candidate.
fn tie_window(c_max: f64, entries_max: u32, max_rounds: usize) -> f64 {
    let m = 4.0 * (c_max + EPS);
    let u = (m.next_up() - m) / 2.0;
    let (r, e) = (max_rounds as f64, entries_max as f64);
    let n = e * r;
    let delta = (2.0 * r + 5.0 * n + 2.0 * e + 10.0) * u;
    if delta.is_finite() {
        delta
    } else {
        f64::INFINITY
    }
}

/// The freezes a replay reads: each link's crossing flows and the round
/// each flow froze in.
struct Past<'a> {
    start: &'a [u32],
    crossing: &'a [u32],
    /// Round each flow froze in, or [`LIVE`].
    frozen_at: &'a [u32],
}

/// Per-link exact loads of [`max_min_rates`], each brought up to date
/// only when its link is looked at.
struct Loads {
    /// The reference's `used[l]` as of the end of round `replayed[l]`.
    used: Vec<f64>,
    replayed: Vec<u32>,
    /// `incs[r]` is round `r`'s increment; round 0 adds nothing.
    incs: Vec<f64>,
    /// Freeze rounds of a link's flows, the replay's working list.
    froze: Vec<u32>,
}

impl Loads {
    /// Brings `used[l]` to the end of round `through`, making the
    /// reference's adds in its order: round `r` adds `incs[r]` once per
    /// route entry on `l` whose flow had not frozen before round `r`.
    /// `active` is the link's count of entries not frozen yet.
    fn replay(&mut self, l: usize, through: u32, active: u32, past: &Past) {
        let from = self.replayed[l];
        debug_assert!(from <= through, "link {l} replayed past round {through}");
        if from == through {
            return;
        }
        // Entries that froze since the last replay took the adds of every
        // round up to the one they froze in.
        self.froze.clear();
        let lo = past.start[l] as usize;
        let hi = past.start[l + 1] as usize;
        self.froze.extend(
            past.crossing[lo..hi]
                .iter()
                .map(|&i| past.frozen_at[i as usize])
                .filter(|&f| f > from && f != LIVE),
        );
        self.froze.sort_unstable();
        let mut a = active + self.froze.len() as u32;
        let mut gone = self.froze.iter().peekable();
        let mut u = self.used[l];
        for r in from + 1..=through {
            while gone.next_if(|&&f| f < r).is_some() {
                a -= 1;
            }
            let inc = self.incs[r as usize];
            for _ in 0..a {
                u += inc;
            }
        }
        self.used[l] = u;
        self.replayed[l] = through;
    }
}

/// Per-link route-entry counts and link→flow incidence lists, built once
/// per solve by both kernels.
#[derive(Debug, Default)]
struct Incidence {
    /// Route entries of unfrozen flows per link (a route crossing `l`
    /// twice counts twice): the number of `+= inc` the link takes each
    /// round.
    active: Vec<u32>,
    /// `crossing[start[l]..start[l + 1]]` lists the flows crossing link
    /// `l`, once per route entry, in flow order.
    start: Vec<u32>,
    crossing: Vec<u32>,
}

impl Incidence {
    /// Counts and lists the route entries of `flows` over `num_links`
    /// links, and sizes `rate` to the flows: `f64::INFINITY` for an empty
    /// route, 0 otherwise. Returns the number of non-empty routes.
    ///
    /// # Panics
    ///
    /// Panics if a route references a link `>= num_links`.
    fn build<S: AsRef<[u32]>>(
        &mut self,
        num_links: usize,
        flows: &[S],
        rate: &mut Vec<f64>,
    ) -> usize {
        let Incidence {
            active,
            start,
            crossing,
        } = self;
        rate.clear();
        rate.resize(flows.len(), 0.0);
        active.clear();
        active.resize(num_links, 0);
        let mut live = 0usize;
        for (i, fl) in flows.iter().enumerate() {
            let fl = fl.as_ref();
            if fl.is_empty() {
                rate[i] = f64::INFINITY;
                continue;
            }
            live += 1;
            for &l in fl {
                assert!((l as usize) < num_links, "link {l} out of range");
                active[l as usize] += 1;
            }
        }
        // `start[l]` begins at the end of `l`'s range and counts down as
        // the flows are placed back to front.
        start.clear();
        let mut end = 0u32;
        start.extend(active.iter().map(|&a| {
            end += a;
            end
        }));
        start.push(end);
        crossing.clear();
        crossing.resize(end as usize, 0);
        for (i, fl) in flows.iter().enumerate().rev() {
            for &l in fl.as_ref() {
                start[l as usize] -= 1;
                crossing[start[l as usize] as usize] = i as u32;
            }
        }
        live
    }
}

/// Reusable working state for [`max_min_rates_with`].
///
/// Event-driven re-solves (hybrid co-simulation: elephant arrival /
/// departure / failure reconvergence) call the solver thousands of times
/// per run on near-identical instances; keeping the per-link counters, the
/// link→flow incidence lists and the round-local lists in one long-lived
/// struct makes each re-solve allocation-free after the first (the same
/// discipline as `sample_route_into`'s shared route buffer).
///
/// After a solve, [`FluidScratch::link_used`] exposes the per-link
/// capacity consumed by the solved flows — the residual-capacity export
/// the packet engine needs for rate handoff.
#[derive(Debug, Default)]
pub struct FluidScratch {
    incidence: Incidence,
    /// Capacity consumed per link; valid after a solve.
    used: Vec<f64>,
    /// Links with at least one active route entry.
    active_links: Vec<u32>,
    /// Links that saturated this round.
    sat_links: Vec<u32>,
    /// Per-flow freeze marks.
    frozen: Vec<bool>,
}

impl FluidScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> FluidScratch {
        FluidScratch::default()
    }

    /// Per-link capacity consumed by the most recent solve, indexed by
    /// the same link ids the flows referenced. Empty before any solve.
    pub fn link_used(&self) -> &[f64] {
        &self.used
    }
}

/// The max-min fair allocation of [`max_min_rates`], plus every link's
/// consumed capacity ([`FluidScratch::link_used`]), with caller-owned
/// scratch and output buffers, generic over the per-flow route container
/// (`Vec<u32>`, `&[u32]`, …).
///
/// Progressive filling run link-major. Every unfrozen flow has received
/// the same increments in the same order, so its rate is the running sum
/// of the increments, written once when the flow freezes. Each round takes
/// the increment as the min of `headroom / active` over the active links
/// (a min is order-free), gives each active link exactly `active[l]`
/// sequential `used[l] += inc` — the adds the flow-major reference makes
/// on that accumulator, whose order cannot matter since they all add the
/// same `inc` — and freezes the flows on the incidence lists of the links
/// that saturated. The result — rates and `scratch.link_used()` — is
/// therefore bit-identical to [`max_min_rates_reference`], which tests
/// pin.
///
/// Every link's load is an output here, so every add is made; when only
/// rates are wanted, [`max_min_rates`] skips the adds no saturation
/// depends on.
///
/// `O(E + L)` to build the incidence lists (`E` route entries, `L` links),
/// then per round `O(A + E_r)` for `A` active links and `E_r` route
/// entries of unfrozen flows; the freezes cost `O(E)` over the whole
/// solve. At most one round per link a flow crosses (the solve panics past
/// that, see `check_rounds`). Allocation-free when `scratch` and `rate`
/// are reused across calls.
///
/// # Panics
///
/// Same contract as [`max_min_rates`].
pub fn max_min_rates_with<S: AsRef<[u32]>>(
    num_links: usize,
    cap: &[f64],
    flows: &[S],
    scratch: &mut FluidScratch,
    rate: &mut Vec<f64>,
) {
    assert_eq!(cap.len(), num_links);
    let mut live = scratch.incidence.build(num_links, flows, rate);
    let FluidScratch {
        incidence:
            Incidence {
                active,
                start,
                crossing,
            },
        used,
        active_links,
        sat_links,
        frozen,
    } = scratch;
    frozen.clear();
    frozen.resize(flows.len(), false);
    used.clear();
    used.resize(num_links, 0.0);
    active_links.clear();
    active_links.extend((0..num_links as u32).filter(|&l| active[l as usize] > 0));
    for &l in active_links.iter() {
        assert!(cap[l as usize] > 0.0, "used link {l} has no capacity");
    }
    let max_rounds = active_links.len();
    // The rate of every flow still unfrozen: `0.0 + inc₁ + inc₂ + …`, the
    // same adds in the same order as the reference's per-flow `+= inc`.
    let mut filled = 0.0f64;
    let mut rounds = 0;
    while live > 0 {
        rounds += 1;
        check_rounds(rounds, max_rounds, live);
        active_links.retain(|&l| active[l as usize] > 0);
        let inc = smallest_increment(cap, used, active, active_links);
        debug_assert!(inc.is_finite(), "active flows but no constraining link");
        filled += inc;
        // Each active link takes its `active[l]` adds in sequence; only
        // active links can saturate (every link of an unfrozen flow has
        // active > 0).
        sat_links.clear();
        for &l in active_links.iter() {
            let l = l as usize;
            let mut u = used[l];
            for _ in 0..active[l] {
                u += inc;
            }
            used[l] = u;
            if u + EPS >= cap[l] {
                sat_links.push(l as u32);
            }
        }
        for &l in sat_links.iter() {
            let (lo, hi) = (start[l as usize] as usize, start[l as usize + 1] as usize);
            for &i in &crossing[lo..hi] {
                if !std::mem::replace(&mut frozen[i as usize], true) {
                    rate[i as usize] = filled;
                    live -= 1;
                    for &m in flows[i as usize].as_ref() {
                        active[m as usize] -= 1;
                    }
                }
            }
        }
    }
}

/// Every round saturates at least one link, and a saturated link freezes
/// every flow on it, so a solve takes at most one round per link carrying
/// a flow at the start. Panics past that bound: a fault that leaves a flow
/// unfrozen would otherwise spin forever.
fn check_rounds(round: usize, max_rounds: usize, live: usize) {
    assert!(
        round <= max_rounds,
        "max-min solve did not converge: {live} flows still live after {max_rounds} rounds"
    );
}

/// Smallest equal increment any listed link permits: the min over links of
/// `headroom / active`. The min is exact and order-free (no quotient is
/// NaN: headroom is clamped at 0 and every listed count is positive), so
/// four running minima over interleaved links give the reference's value
/// while their compare chains overlap; a single chain made this scan the
/// solver's bottleneck.
fn smallest_increment(cap: &[f64], used: &[f64], active: &[u32], links: &[u32]) -> f64 {
    let quotient = |l: u32| {
        let l = l as usize;
        (cap[l] - used[l]).max(0.0) / active[l] as f64
    };
    let mut mins = [f64::INFINITY; 4];
    let mut quads = links.chunks_exact(4);
    for quad in &mut quads {
        for (m, &l) in mins.iter_mut().zip(quad) {
            let q = quotient(l);
            if q < *m {
                *m = q;
            }
        }
    }
    for &l in quads.remainder() {
        mins[0] = mins[0].min(quotient(l));
    }
    mins[0].min(mins[1]).min(mins[2].min(mins[3]))
}

/// The straightforward full-scan implementation of [`max_min_rates`]:
/// every round walks all links for the increment and all flows for the
/// freeze step. Kept as the bit-exactness reference for both kernels (see
/// the cross-check tests) and as the baseline for the solver benchmarks.
pub fn max_min_rates_reference(num_links: usize, cap: &[f64], flows: &[Vec<u32>]) -> Vec<f64> {
    max_min_reference(num_links, cap, flows).0
}

/// [`max_min_rates_reference`]'s rates and its per-link consumed capacity:
/// the reference for what [`max_min_rates_with`] reports in
/// [`FluidScratch::link_used`].
///
/// # Panics
///
/// Same contract as [`max_min_rates`].
pub fn max_min_reference(
    num_links: usize,
    cap: &[f64],
    flows: &[Vec<u32>],
) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(cap.len(), num_links);
    let mut rate = vec![0.0f64; flows.len()];
    let mut frozen = vec![false; flows.len()];
    let mut active = vec![0u32; num_links];
    for fl in flows {
        for &l in fl {
            assert!((l as usize) < num_links, "link {l} out of range");
            active[l as usize] += 1;
        }
    }
    let mut used = vec![0.0f64; num_links];
    let mut remaining: usize = flows
        .iter()
        .enumerate()
        .map(|(i, fl)| {
            if fl.is_empty() {
                rate[i] = f64::INFINITY;
                frozen[i] = true;
                0
            } else {
                1
            }
        })
        .sum();
    let max_rounds = active.iter().filter(|&&a| a > 0).count();
    let mut rounds = 0;
    while remaining > 0 {
        rounds += 1;
        check_rounds(rounds, max_rounds, remaining);
        let mut inc = f64::INFINITY;
        for l in 0..num_links {
            if active[l] > 0 {
                assert!(cap[l] > 0.0, "used link {l} has no capacity");
                let headroom = (cap[l] - used[l]).max(0.0);
                inc = inc.min(headroom / active[l] as f64);
            }
        }
        debug_assert!(inc.is_finite(), "active flows but no constraining link");
        for (i, fl) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            rate[i] += inc;
            for &l in fl {
                used[l as usize] += inc;
            }
        }
        let saturated: Vec<bool> = (0..num_links)
            .map(|l| active[l] > 0 && used[l] + EPS >= cap[l])
            .collect();
        for (i, fl) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            if fl.iter().any(|&l| saturated[l as usize]) {
                frozen[i] = true;
                remaining -= 1;
                for &l in fl {
                    active[l as usize] -= 1;
                }
            }
        }
    }
    (rate, used)
}

/// Outcome of a fluid throughput experiment.
#[derive(Debug, Clone)]
pub struct FluidSolution {
    /// Max-min rate per demand, in units of link rate.
    pub rates: Vec<f64>,
    /// Route length (switch-switch hops) per demand.
    pub hops: Vec<u32>,
}

impl FluidSolution {
    /// Mean rate over all demands (the paper's Fig. 5 cell statistic).
    pub fn mean_rate(&self) -> f64 {
        if self.rates.is_empty() {
            return 0.0;
        }
        self.rates.iter().sum::<f64>() / self.rates.len() as f64
    }

    /// Aggregate throughput (sum of rates).
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// Minimum rate (worst-served flow).
    pub fn min_rate(&self) -> f64 {
        self.rates.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Solves the max-min allocation for long-running flows between the given
/// server pairs on a topology under a routing scheme.
///
/// Each demand is routed once by per-flow ECMP sampling
/// ([`Forwarding::sample_route_into`] — one buffer reused across all
/// demands, same RNG stream as `sample_route_generic`, so identical seeds
/// give identical routes), expanded to its directed links *including the
/// source uplink and destination downlink*, then filled. Same-rack demands
/// use only their NIC links; same-server demands get infinite rate.
///
/// # Panics
///
/// Panics if a demand references a nonexistent server or an unreachable
/// pair.
pub fn solve<F: Forwarding>(
    topo: &Topology,
    fs: &F,
    demands: &[(u32, u32)],
    seed: u64,
) -> FluidSolution {
    let space = LinkSpace::new(topo);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut flows: Vec<Vec<u32>> = Vec::with_capacity(demands.len());
    let mut hops = Vec::with_capacity(demands.len());
    let mut route = Vec::new();
    for &(s, d) in demands {
        assert!(
            s < topo.num_servers() && d < topo.num_servers(),
            "bad server"
        );
        if s == d {
            flows.push(Vec::new());
            hops.push(0);
            continue;
        }
        let ssw = topo.switch_of(s);
        let dsw = topo.switch_of(d);
        let mut links = vec![space.uplink(s)];
        if ssw != dsw {
            assert!(
                fs.sample_route_into(ssw, dsw, &mut rng, &mut route),
                "unreachable demand pair"
            );
            let mut cur = ssw;
            hops.push(route.len() as u32);
            for &(next, edge) in &route {
                links.push(space.switch_link(edge, cur));
                cur = next;
            }
        } else {
            hops.push(0);
        }
        links.push(space.downlink(d));
        flows.push(links);
    }
    let cap = vec![1.0f64; space.num_links() as usize];
    let rates = max_min_rates(space.num_links() as usize, &cap, &flows);
    FluidSolution { rates, hops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spineless_routing::{ForwardingState, RoutingScheme};
    use spineless_topo::leafspine::LeafSpine;
    use spineless_topo::rrg::Rrg;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn single_flow_gets_full_link() {
        let rates = max_min_rates(3, &[1.0; 3], &[vec![0, 1, 2]]);
        assert!(close(rates[0], 1.0));
    }

    #[test]
    fn two_flows_share_bottleneck() {
        // Both cross link 0; one also crosses link 1.
        let rates = max_min_rates(2, &[1.0, 1.0], &[vec![0], vec![0, 1]]);
        assert!(close(rates[0], 0.5) && close(rates[1], 0.5));
    }

    #[test]
    fn parking_lot_is_max_min_not_proportional() {
        // Classic parking lot: flow A crosses links 0 and 1; flow B only
        // link 0; flow C only link 1. Max-min: everyone 0.5.
        let rates = max_min_rates(2, &[1.0, 1.0], &[vec![0, 1], vec![0], vec![1]]);
        for r in rates {
            assert!(close(r, 0.5));
        }
    }

    #[test]
    fn unequal_capacities_water_fill() {
        // Link 0 cap 1 shared by A,B; link 1 cap 0.25 crossed only by B.
        // B freezes at 0.25, then A fills the rest of link 0: 0.75.
        let rates = max_min_rates(2, &[1.0, 0.25], &[vec![0], vec![0, 1]]);
        assert!(close(rates[1], 0.25), "{rates:?}");
        assert!(close(rates[0], 0.75), "{rates:?}");
    }

    #[test]
    fn empty_route_is_infinite() {
        let rates = max_min_rates(1, &[1.0], &[vec![], vec![0]]);
        assert!(rates[0].is_infinite());
        assert!(close(rates[1], 1.0));
    }

    #[test]
    fn incast_shares_downlink() {
        // 8 senders into one server: downlink is the bottleneck, 1/8 each.
        let t = LeafSpine::new(4, 2).build();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let demands: Vec<(u32, u32)> = (4..12).map(|s| (s, 0)).collect();
        let sol = solve(&t, &fs, &demands, 1);
        for &r in &sol.rates {
            assert!(close(r, 0.125), "{:?}", sol.rates);
        }
    }

    #[test]
    fn rack_to_rack_hits_uplink_oversubscription() {
        // leaf-spine(4, 2): 4 servers/leaf, 2 uplinks. All 16 flows from
        // rack 0 to rack 1 share 2 uplinks: aggregate <= 2.0 (and = 2.0
        // because ECMP per-flow hashing may imbalance but max-min fills).
        let t = LeafSpine::new(4, 2).build();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let mut demands = Vec::new();
        for a in 0..4 {
            for b in 4..8 {
                demands.push((a, b));
            }
        }
        let sol = solve(&t, &fs, &demands, 2);
        let total = sol.total_rate();
        assert!(total <= 2.0 + 1e-9, "total {total}");
        // Uplink layer carries everything; with both uplinks used, total
        // should be near 2.0 (hash imbalance can shave a little).
        assert!(total > 1.0, "total {total}");
    }

    #[test]
    fn flat_rrg_beats_leafspine_on_skewed_cs() {
        // The §3.1 story quantified: few hot racks sending to few hot
        // racks. Flat network masks oversubscription; leaf-spine can't.
        let ls = LeafSpine::new(8, 4).build(); // 12 leaves, 96 servers, 3:1
        let flat = Rrg::from_equipment(ls.equipment(), 3).build();
        // Clients: all 8 servers of rack 0; servers: all 8 of rack 1.
        let demands_ls: Vec<(u32, u32)> =
            (0..8).flat_map(|a| (8..16).map(move |b| (a, b))).collect();
        // Same logical demand on the flat network's server ids: the flat
        // network spreads those 16 servers over 2.67 racks; emulate the
        // *pattern* (16 hot servers) with its own placement.
        let demands_flat = demands_ls.clone();
        let fs_ls = ForwardingState::build(&ls.graph, RoutingScheme::Ecmp);
        let fs_flat = ForwardingState::build(&flat.graph, RoutingScheme::ShortestUnion(2));
        let th_ls = solve(&ls, &fs_ls, &demands_ls, 4).total_rate();
        let th_flat = solve(&flat, &fs_flat, &demands_flat, 4).total_rate();
        assert!(
            th_flat > th_ls,
            "flat {th_flat} should beat leaf-spine {th_ls} on skewed traffic"
        );
    }

    #[test]
    fn same_rack_demand_only_uses_nics() {
        let t = LeafSpine::new(4, 2).build();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let sol = solve(&t, &fs, &[(0, 1)], 5);
        assert!(close(sol.rates[0], 1.0));
        assert_eq!(sol.hops[0], 0);
    }

    #[test]
    fn same_server_demand_is_infinite() {
        let t = LeafSpine::new(4, 2).build();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let sol = solve(&t, &fs, &[(3, 3)], 6);
        assert!(sol.rates[0].is_infinite());
    }

    #[test]
    fn active_list_solver_is_bit_identical_to_reference() {
        use rand::Rng;
        // Random instances, including degenerate shapes (unused links,
        // empty routes, heavy sharing): the active-list solver must agree
        // with the full-scan reference to the last bit, not within an
        // epsilon — they perform the same floating-point operations.
        let mut rng = SmallRng::seed_from_u64(0xF1D0);
        for case in 0..50 {
            let num_links = rng.gen_range(1..40usize);
            let cap: Vec<f64> = (0..num_links).map(|_| rng.gen_range(0.1..2.0)).collect();
            let flows: Vec<Vec<u32>> = (0..rng.gen_range(0..60usize))
                .map(|_| {
                    let hops = rng.gen_range(0..6usize);
                    (0..hops)
                        .map(|_| rng.gen_range(0..num_links as u32))
                        .collect()
                })
                .collect();
            let fast = max_min_rates(num_links, &cap, &flows);
            let slow = max_min_rates_reference(num_links, &cap, &flows);
            assert_eq!(fast.len(), slow.len());
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "case {case}, flow {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn solver_matches_reference_on_topology_instances() {
        // Same cross-check on a realistic instance: ECMP-routed C-S
        // demands over a leaf-spine, the Fig. 5 workload shape.
        let t = LeafSpine::new(6, 3).build();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let space = crate::links::LinkSpace::new(&t);
        let mut rng = SmallRng::seed_from_u64(77);
        let mut flows = Vec::new();
        for i in 0..120u32 {
            let s = i % t.num_servers();
            let d = (i * 7 + 5) % t.num_servers();
            if s == d {
                flows.push(Vec::new());
                continue;
            }
            let (ssw, dsw) = (t.switch_of(s), t.switch_of(d));
            let mut links = vec![space.uplink(s)];
            if ssw != dsw {
                let route = fs.sample_route_generic(ssw, dsw, &mut rng).unwrap();
                let mut cur = ssw;
                for &(next, edge) in &route {
                    links.push(space.switch_link(edge, cur));
                    cur = next;
                }
            }
            links.push(space.downlink(d));
            flows.push(links);
        }
        let cap = vec![1.0f64; space.num_links() as usize];
        let fast = max_min_rates(space.num_links() as usize, &cap, &flows);
        let slow = max_min_rates_reference(space.num_links() as usize, &cap, &flows);
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_resolves() {
        use rand::Rng;
        // One long-lived scratch across many random instances (the
        // hybrid-engine re-solve pattern) must produce bit-identical
        // rates to a fresh allocation each time, regardless of what the
        // previous instance left in the buffers.
        let mut rng = SmallRng::seed_from_u64(0x5C4A);
        let mut scratch = FluidScratch::new();
        let mut rate = Vec::new();
        for case in 0..60 {
            let num_links = rng.gen_range(1..30usize);
            let cap: Vec<f64> = (0..num_links).map(|_| rng.gen_range(0.1..2.0)).collect();
            let flows: Vec<Vec<u32>> = (0..rng.gen_range(0..50usize))
                .map(|_| {
                    let hops = rng.gen_range(0..5usize);
                    (0..hops)
                        .map(|_| rng.gen_range(0..num_links as u32))
                        .collect()
                })
                .collect();
            let fresh = max_min_rates(num_links, &cap, &flows);
            max_min_rates_with(num_links, &cap, &flows, &mut scratch, &mut rate);
            assert_eq!(fresh.len(), rate.len());
            for (i, (a, b)) in fresh.iter().zip(&rate).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "case {case}, flow {i}");
            }
        }
    }

    #[test]
    fn link_used_reports_consumed_capacity() {
        // Two flows share link 0 (0.5 each); flow B also crosses link 1.
        // used = [1.0, 0.5]; link 2 untouched.
        let mut scratch = FluidScratch::new();
        let mut rate = Vec::new();
        let flows: Vec<Vec<u32>> = vec![vec![0], vec![0, 1]];
        max_min_rates_with(3, &[1.0, 1.0, 1.0], &flows, &mut scratch, &mut rate);
        let used = scratch.link_used();
        assert!(close(used[0], 1.0), "{used:?}");
        assert!(close(used[1], 0.5), "{used:?}");
        assert!(close(used[2], 0.0), "{used:?}");
        // used never exceeds capacity (beyond fp eps).
        for (l, &u) in used.iter().enumerate() {
            assert!(u <= 1.0 + 1e-9, "link {l} overfilled: {u}");
        }
    }

    /// Solves `flows` with both kernels, the link-major one on a scratch
    /// that earlier solves have dirtied, and checks the rates and
    /// `link_used()` bit for bit against the reference's.
    fn assert_matches_reference(
        scratch: &mut FluidScratch,
        num_links: usize,
        cap: &[f64],
        flows: &[Vec<u32>],
        what: &str,
    ) {
        let mut rate = Vec::new();
        max_min_rates_with(num_links, cap, flows, scratch, &mut rate);
        let (ref_rate, ref_used) = max_min_reference(num_links, cap, flows);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rate), bits(&ref_rate), "{what}: rates");
        assert_eq!(bits(scratch.link_used()), bits(&ref_used), "{what}: used");
        let ordered = max_min_rates(num_links, cap, flows);
        assert_eq!(
            bits(&ordered),
            bits(&ref_rate),
            "{what}: saturation-ordered"
        );
    }

    #[test]
    fn both_kernels_match_reference_on_hard_instances() {
        let mut scratch = FluidScratch::new();
        // A route that crosses the same link twice (and one three times):
        // each crossing is its own `+= inc` and its own active count.
        assert_matches_reference(
            &mut scratch,
            3,
            &[1.0, 0.7, 1.0],
            &[vec![0, 0, 1], vec![0], vec![1, 1, 1], vec![2, 0, 2]],
            "repeated links",
        );
        // Non-unit capacities, several orders of magnitude apart.
        assert_matches_reference(
            &mut scratch,
            5,
            &[0.3, 1.7, 2.5, 1e-3, 10.0],
            &[
                vec![0, 1],
                vec![1, 2],
                vec![2, 4],
                vec![3, 4],
                vec![4],
                vec![1],
            ],
            "non-unit capacities",
        );
        // A ring of twelve equal links, two flows per link: every link
        // saturates in the first round.
        let ring: Vec<Vec<u32>> = (0..12u32).map(|i| vec![i, (i + 1) % 12]).collect();
        assert_matches_reference(&mut scratch, 12, &[1.0; 12], &ring, "ring ties");
        // A 6 × 6 grid of row and column flows over 36 links: the row and
        // column bottlenecks tie in pairs across rounds.
        let mut grid: Vec<Vec<u32>> = Vec::new();
        for r in 0..6u32 {
            grid.push((0..6).map(|c| r * 6 + c).collect());
            grid.push((0..6).map(|c| c * 6 + r).collect());
        }
        let grid_cap: Vec<f64> = (0..36).map(|l| [1.0, 2.0, 0.5][l % 3]).collect();
        assert_matches_reference(&mut scratch, 36, &grid_cap, &grid, "grid ties");
        // Empty routes mixed in, first and last included.
        assert_matches_reference(
            &mut scratch,
            2,
            &[1.0, 0.25],
            &[vec![], vec![0], vec![], vec![0, 1], vec![1, 1], vec![]],
            "empty routes",
        );
        // Only empty routes: no round runs.
        assert_matches_reference(&mut scratch, 2, &[1.0; 2], &[vec![], vec![]], "all empty");
        // Capacities one ulp apart, and a zero capacity no route uses.
        let ulp = [1.0, 1.0f64.next_up(), 0.0, 1.0f64.next_down()];
        let ulp_flows: Vec<Vec<u32>> = (0..12u32).map(|i| vec![i % 4 / 2 * 3, i % 2]).collect();
        assert_matches_reference(&mut scratch, 4, &ulp, &ulp_flows, "one ulp apart");
        // Levels that tie in exact arithmetic but are reached through
        // different f64 sums: link 0 fills at 1/3 under three flows, link 3
        // at 1 − 1/6 − 1/4 − 1/4 once three of its four flows froze. With
        // a zero-width candidate window the saturation-ordered kernel
        // misses the reference's bottleneck here.
        let tie: Vec<Vec<u32>> = [
            &[0][..],
            &[1],
            &[2],
            &[2],
            &[3, 1],
            &[3],
            &[2],
            &[2, 3],
            &[1],
            &[2],
            &[2],
            &[0],
            &[1, 3],
            &[0],
        ]
        .iter()
        .map(|r| r.to_vec())
        .collect();
        assert_matches_reference(&mut scratch, 4, &[1.0; 4], &tie, "rational tie");
        // Capacities closer than the saturation tolerance: the reference
        // saturates both links in the first round, though only one sets
        // the increment.
        assert_matches_reference(
            &mut scratch,
            2,
            &[1.0, 1.0 + 4e-13],
            &[vec![0], vec![1]],
            "within tolerance",
        );
        // An infinite capacity: every flow also crosses a finite link.
        assert_matches_reference(
            &mut scratch,
            2,
            &[1.0, f64::INFINITY],
            &[vec![0, 1], vec![1, 0, 1], vec![0]],
            "infinite capacity",
        );
        // Random instances drawing from few links and three capacities, so
        // repeats within a route, ties and empty routes are all common.
        let mut rng = SmallRng::seed_from_u64(0x71E5);
        for case in 0..200 {
            use rand::Rng;
            let num_links = rng.gen_range(1..12usize);
            let cap: Vec<f64> = (0..num_links)
                .map(|_| [0.5, 1.0, 3.0][rng.gen_range(0..3)])
                .collect();
            let flows: Vec<Vec<u32>> = (0..rng.gen_range(0..40usize))
                .map(|_| {
                    let hops = rng.gen_range(0..7usize);
                    (0..hops)
                        .map(|_| rng.gen_range(0..num_links as u32))
                        .collect()
                })
                .collect();
            assert_matches_reference(
                &mut scratch,
                num_links,
                &cap,
                &flows,
                &format!("case {case}"),
            );
        }
    }

    #[test]
    #[should_panic(expected = "link 3 out of range")]
    fn saturation_ordered_kernel_rejects_out_of_range_link() {
        max_min_rates(3, &[1.0; 3], &[vec![0], vec![1, 3]]);
    }

    #[test]
    #[should_panic(expected = "link 3 out of range")]
    fn link_major_kernel_rejects_out_of_range_link() {
        let mut rate = Vec::new();
        let flows = [vec![0u32], vec![1, 3]];
        max_min_rates_with(3, &[1.0; 3], &flows, &mut FluidScratch::new(), &mut rate);
    }

    #[test]
    #[should_panic(expected = "used link 1 has no capacity")]
    fn saturation_ordered_kernel_rejects_zero_capacity_on_used_link() {
        max_min_rates(3, &[1.0, 0.0, 0.0], &[vec![0], vec![0, 1]]);
    }

    #[test]
    #[should_panic(expected = "used link 1 has no capacity")]
    fn link_major_kernel_rejects_zero_capacity_on_used_link() {
        let mut rate = Vec::new();
        let flows = [vec![0u32], vec![0, 1]];
        max_min_rates_with(
            3,
            &[1.0, 0.0, 0.0],
            &flows,
            &mut FluidScratch::new(),
            &mut rate,
        );
    }

    #[test]
    fn slice_routes_match_vec_routes() {
        // The generic container parameter: &[u32] routes must solve
        // identically to Vec<u32> routes.
        let vec_flows: Vec<Vec<u32>> = vec![vec![0, 1], vec![0], vec![1]];
        let slice_flows: Vec<&[u32]> = vec_flows.iter().map(|v| v.as_slice()).collect();
        let a = max_min_rates(2, &[1.0, 1.0], &vec_flows);
        let mut scratch = FluidScratch::new();
        let mut b = Vec::new();
        max_min_rates_with(2, &[1.0, 1.0], &slice_flows, &mut scratch, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let t = LeafSpine::new(6, 3).build();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let demands: Vec<(u32, u32)> = (0..20).map(|i| (i, 53 - i)).collect();
        let a = solve(&t, &fs, &demands, 9);
        let b = solve(&t, &fs, &demands, 9);
        assert_eq!(a.rates, b.rates);
    }
}
