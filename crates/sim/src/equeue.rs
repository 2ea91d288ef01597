//! Event schedulers: per-delay FIFO lanes over a heap (the default) and
//! a reference binary heap, both dequeuing in exact `(time, rank)` order,
//! plus the timing wheel that holds RTO timers.
//!
//! The simulator's event mix is dominated by near-future work at a few
//! fixed offsets: `TxDone` lands one serialization time ahead of now,
//! `Arrive` one serialization plus one link delay ahead, pause frames one
//! pause-frame transit ahead. A comparison heap pays `O(log n)` sifts of
//! large entries on every push and pop of that mix, even when shallow;
//! [`DelayLanes`] keeps one FIFO per offset, where pushes are appends and
//! arrive already sorted, and leaves only the irregular remainder to a
//! heap.
//!
//! Both schedulers order events by the key `(t, rank)`, where the engine
//! passes each event's content rank (`datapath::rank_of`), unique among
//! events at one time. Since the key is total, *any* correct priority
//! queue yields the identical event order, so switching schedulers can
//! never change simulation results — a property the determinism tests in
//! `engine` pin down.

use crate::types::Ns;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One scheduled event: the ordering key plus its payload.
///
/// Ordering (and equality) consider only `(t, rank)`; the key is unique
/// per queue so the order is total and payloads never need comparing.
#[derive(Debug, Clone, Copy)]
pub struct Entry<E> {
    /// Event time, ns.
    pub t: Ns,
    /// Tie-break among events at one time (unique among them).
    pub rank: u64,
    /// The event payload.
    pub ev: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (Ns, u64) {
        (self.t, self.rank)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Reference scheduler: a plain binary min-heap. `O(log n)` per op, kept
/// as the determinism cross-check baseline.
#[derive(Debug, Clone)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
}

impl<E> HeapQueue<E> {
    /// Creates an empty heap scheduler.
    pub fn new() -> HeapQueue<E> {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Inserts an event. `(t, rank)` must be unique.
    pub fn push(&mut self, t: Ns, rank: u64, ev: E) {
        self.heap.push(Reverse(Entry { t, rank, ev }));
    }

    /// Removes and returns the earliest event by `(t, rank)`.
    pub fn pop(&mut self) -> Option<(Ns, u64, E)> {
        self.heap.pop().map(|Reverse(e)| (e.t, e.rank, e.ev))
    }

    /// The `(t, rank)` key [`pop`](Self::pop) would return next.
    pub(crate) fn peek_key(&self) -> Option<(Ns, u64)> {
        self.heap.peek().map(|Reverse(e)| e.key())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        HeapQueue::new()
    }
}

/// Most lanes a [`DelayLanes`] queue keeps. The engine's steady-state mix
/// uses a handful of delays (data and ACK serialization, each plus link
/// delay, and pause-frame transit); the rest go to the heap.
const LANES: usize = 8;

/// One FIFO lane: events pushed at `last popped t + d` for a fixed `d`.
#[derive(Debug, Clone)]
struct Lane<E> {
    /// The delay this lane serves; meaningless while the lane is empty.
    d: Ns,
    /// Pending events, in ascending `(t, rank)` order.
    q: VecDeque<Entry<E>>,
}

/// The default scheduler: per-delay FIFO lanes in front of a
/// [`HeapQueue`].
///
/// Almost every event the engine pushes lands at `now + d` for one of a
/// few fixed delays `d`, with `now` almost always non-decreasing, so the
/// events sharing one `d` arrive in time order. A push goes to the lane
/// tagged with its `d = t − last popped t` unless its time is below the
/// lane tail's: usually an append, but events pushed from the same
/// instant share a time and arrive in handler order, not rank order, so a
/// key below the tail's rank walks back over the tail's same-time run and
/// is inserted in order. A new `d` claims an empty lane, or else
/// the lane with the longest delay above `d` that holds a single entry,
/// which moves to the heap: that costs the one heap push the new event
/// would have cost, and frees a lane a one-off delay would otherwise hold
/// until it pops — the arrival of a flow's short last segment, a
/// serialization time a hybrid residual scaled, a materialized `TxDone`,
/// or, on the reference datapath, an RTO. Only longer delays yield, so a
/// stream of one-off delays cannot keep evicting each other. Every other
/// push — a time below its lane's tail (the engine can pop an event, then
/// process an earlier timer and return the event, so the last popped time
/// can step back), delays beyond the lane budget — goes to the heap.
/// A pop takes the least of the lane heads and the heap top by the full
/// `(t, rank)` key, so the dequeue order equals the heap's exactly; the
/// lanes only replace `O(log n)` sifts of large entries with `O(1)` ring
/// appends.
#[derive(Debug, Clone)]
pub struct DelayLanes<E> {
    lanes: [Lane<E>; LANES],
    heap: HeapQueue<E>,
    /// Time of the most recently popped event.
    now: Ns,
    len: usize,
    /// Pushes a lane took.
    pub(crate) lane_pushes: u64,
    /// Heap insertions: pushes no lane took, plus entries moved out of a
    /// reclaimed lane.
    pub(crate) heap_pushes: u64,
}

impl<E> DelayLanes<E> {
    /// Creates an empty queue.
    pub fn new() -> DelayLanes<E> {
        DelayLanes {
            lanes: std::array::from_fn(|_| Lane {
                d: 0,
                q: VecDeque::new(),
            }),
            heap: HeapQueue::new(),
            now: 0,
            len: 0,
            lane_pushes: 0,
            heap_pushes: 0,
        }
    }

    /// Inserts an event. `(t, rank)` must be unique.
    pub fn push(&mut self, t: Ns, rank: u64, ev: E) {
        self.len += 1;
        let Some((i, d)) = self.lane_for(t) else {
            self.heap.push(t, rank, ev);
            self.heap_pushes += 1;
            return;
        };
        let lane = &mut self.lanes[i];
        if lane.d != d {
            lane.d = d;
            if let Some(old) = lane.q.pop_front() {
                self.heap.push(old.t, old.rank, old.ev);
                self.heap_pushes += 1;
            }
        }
        let e = Entry { t, rank, ev };
        self.lane_pushes += 1;
        if lane.q.back().is_none_or(|tail| *tail < e) {
            lane.q.push_back(e);
            return;
        }
        // `lane_for` admits no key below the tail's time, so only the
        // tail's same-time run can sort above the new key.
        let mut at = lane.q.len() - 1;
        while at > 0 && lane.q[at - 1] > e {
            at -= 1;
        }
        lane.q.insert(at, e);
    }

    /// The lane a push at `t` goes to, with its delay `d`: the lane
    /// tagged `d` if `t` is not below its tail's time, else an empty lane,
    /// else the single-entry lane with the longest delay above `d`;
    /// `None` sends the push to the heap.
    fn lane_for(&self, t: Ns) -> Option<(usize, Ns)> {
        let d = t.checked_sub(self.now)?;
        let (mut empty, mut single, mut longest) = (None, None, d);
        for (i, lane) in self.lanes.iter().enumerate() {
            match lane.q.back() {
                Some(tail) if lane.d == d => return (t >= tail.t).then_some((i, d)),
                None => empty = empty.or(Some(i)),
                Some(_) if lane.q.len() == 1 && lane.d > longest => {
                    single = Some(i);
                    longest = lane.d;
                }
                Some(_) => {}
            }
        }
        empty.or(single).map(|i| (i, d))
    }

    /// Removes and returns the earliest event by `(t, rank)`.
    pub fn pop(&mut self) -> Option<(Ns, u64, E)> {
        let mut best = self.heap.peek_key();
        let mut from = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(h) = lane.q.front() {
                if best.is_none_or(|k| h.key() < k) {
                    best = Some(h.key());
                    from = Some(i);
                }
            }
        }
        let e = match from {
            Some(i) => self.lanes[i].q.pop_front().map(|e| (e.t, e.rank, e.ev)),
            None => self.heap.pop(),
        }?;
        self.len -= 1;
        self.now = e.0;
        Some(e)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<E> Default for DelayLanes<E> {
    fn default() -> Self {
        DelayLanes::new()
    }
}

/// One pending timer in a [`TimerWheel`]: full `(t, rank)` ordering key,
/// the owner key (the engine uses the sender's slot in its shard) and an
/// opaque generation the owner uses to validate firings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WheelEntry {
    t: Ns,
    rank: u64,
    key: u32,
    gen: u64,
}

/// Hierarchical timing wheel for coarse, cancellable timers — the fast
/// path for TCP RTOs, which are armed and cancelled once per ACK but fire
/// almost never.
///
/// Four levels of 64 buckets each, bucket widths `2^16` ns (≈ 65 µs) at
/// level 0 growing by `2^6` per level, so the wheel spans ≈ 18 minutes of
/// simulated time beyond the current anchor; rarer entries land in a
/// linear overflow bucket. An entry is filed in the lowest level whose
/// span contains it *relative to the anchor* (the last time bound the
/// caller established), and each key holds at most one live entry —
/// [`TimerWheel::cancel`] removes it eagerly via a per-key location map,
/// so buckets never accumulate stale entries.
///
/// The wheel orders by the same total `(t, rank)` key as the event queues:
/// [`TimerWheel::pop_before`] returns the earliest entry strictly below a
/// bound, which is how the engine merges wheel-resident timers with the
/// main event stream without perturbing the reference event order. The
/// common case — no timer due before the next wire event — is one
/// comparison against a cached lower bound of the wheel minimum;
/// occupancy bitmasks (one `u64` per level) make the exact-minimum scan
/// cheap when it is needed.
///
/// Two invariants make the circular bucket disambiguation sound: entries
/// are always inserted at `t >=` the current anchor (clamped defensively),
/// and an entry filed at level `l` satisfied `day(t) - day(anchor) < 64`
/// at insert time; since the anchor only advances, the difference only
/// shrinks, so at any instant every bucket holds entries of exactly one
/// day and the circularly-first occupied bucket of a level holds that
/// level's minimum.
#[derive(Debug, Clone)]
pub struct TimerWheel {
    /// `levels * 64` wheel buckets, then one overflow bucket.
    buckets: Vec<Vec<WheelEntry>>,
    /// Bucket-occupancy bitmask per level.
    occ: [u64; Self::LEVELS],
    /// Per-key location: `(slot, index into the slot's Vec)`;
    /// `slot == NO_SLOT` = no live entry. Sized by the largest key armed,
    /// so keys should be dense.
    loc: Vec<(u16, u32)>,
    /// Monotonic time anchor: every live entry has `t >= anchor`.
    anchor: Ns,
    /// Lower bound on the minimum live `(t, rank)` key (exact after a
    /// scan; may be stale-low after a cancel, never stale-high).
    min_lb: (Ns, u64),
    /// Live entries.
    len: usize,
}

impl TimerWheel {
    const LEVELS: usize = 4;
    /// log2 bucket width at level 0; each level widens by `2^6`.
    const BASE_SHIFT: u32 = 16;
    const OVERFLOW_SLOT: usize = Self::LEVELS * 64;
    const NO_SLOT: u16 = u16::MAX;

    /// Creates an empty wheel.
    pub fn new() -> TimerWheel {
        TimerWheel {
            buckets: (0..=Self::OVERFLOW_SLOT).map(|_| Vec::new()).collect(),
            occ: [0; Self::LEVELS],
            loc: Vec::new(),
            anchor: 0,
            min_lb: (Ns::MAX, u64::MAX),
            len: 0,
        }
    }

    /// Live timer count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The per-key location map, the wheel's only per-key state.
    #[cfg(test)]
    pub(crate) fn key_state(&self) -> crate::datapath::StateVec {
        crate::datapath::state_vec("wheel keys", &self.loc)
    }

    /// A lower bound on the earliest live timer's time (see `min_lb`);
    /// `Ns::MAX` when none is pending.
    pub(crate) fn min_time(&self) -> Ns {
        if self.len == 0 {
            Ns::MAX
        } else {
            self.min_lb.0
        }
    }

    /// Arms a timer for `key`, replacing the key's live entry if one
    /// exists (exactly as `cancel(key)` followed by a fresh insert — the
    /// wheel never holds two entries per key). `(t, rank)` must be unique
    /// in the total order shared with the caller's event queue.
    pub fn insert(&mut self, t: Ns, rank: u64, key: u32, gen: u64) {
        if key as usize >= self.loc.len() {
            self.loc.resize(key as usize + 1, (Self::NO_SLOT, 0));
        } else {
            let (slot, idx) = self.loc[key as usize];
            if slot != Self::NO_SLOT {
                self.remove_at(slot as usize, idx as usize);
            }
        }
        let mut slot = Self::OVERFLOW_SLOT;
        for l in 0..Self::LEVELS {
            let shift = Self::BASE_SHIFT + 6 * l as u32;
            let a = self.anchor >> shift;
            let d = (t >> shift).max(a);
            if d - a < 64 {
                slot = l * 64 + (d & 63) as usize;
                self.occ[l] |= 1 << (d & 63);
                break;
            }
        }
        let b = &mut self.buckets[slot];
        self.loc[key as usize] = (slot as u16, b.len() as u32);
        b.push(WheelEntry { t, rank, key, gen });
        self.min_lb = if self.len == 0 {
            (t, rank)
        } else {
            self.min_lb.min((t, rank))
        };
        self.len += 1;
    }

    /// Cancels `key`'s live timer, if any; returns whether one existed.
    pub fn cancel(&mut self, key: u32) -> bool {
        let Some(&(slot, idx)) = self.loc.get(key as usize) else {
            return false;
        };
        if slot == Self::NO_SLOT {
            return false;
        }
        self.remove_at(slot as usize, idx as usize);
        true
    }

    /// Removes and returns the earliest timer whose `(t, rank)` key is
    /// strictly below `bound`, as `(t, rank, key, gen)`; `None` when no
    /// timer is due. Discrete-event contract: the caller processes the
    /// returned timer — or, on `None`, the queue event whose key is
    /// `bound` — next, so simulated time advances to that key and every
    /// later `insert` lands at or after it; that is what makes the
    /// anchor advance below sound.
    pub fn pop_before(&mut self, bound: (Ns, u64)) -> Option<(Ns, u64, u32, u64)> {
        if self.len == 0 || self.min_lb >= bound {
            return None;
        }
        // Exact-minimum scan: per level, the circularly-first occupied
        // bucket from the anchor position holds the level minimum; compare
        // across levels and the overflow bucket by full (t, rank) key.
        let mut best: Option<((Ns, u64), usize, usize)> = None;
        for l in 0..Self::LEVELS {
            let occ = self.occ[l];
            if occ == 0 {
                continue;
            }
            let shift = Self::BASE_SHIFT + 6 * l as u32;
            let start = ((self.anchor >> shift) & 63) as u32;
            let j = occ.rotate_right(start).trailing_zeros();
            let slot = l * 64 + ((start + j) & 63) as usize;
            for (i, e) in self.buckets[slot].iter().enumerate() {
                if best.is_none_or(|(k, _, _)| (e.t, e.rank) < k) {
                    best = Some(((e.t, e.rank), slot, i));
                }
            }
        }
        for (i, e) in self.buckets[Self::OVERFLOW_SLOT].iter().enumerate() {
            if best.is_none_or(|(k, _, _)| (e.t, e.rank) < k) {
                best = Some(((e.t, e.rank), Self::OVERFLOW_SLOT, i));
            }
        }
        let ((t, rank), slot, idx) = best.expect("len > 0");
        self.min_lb = (t, rank); // exact now
        if (t, rank) >= bound {
            // Nothing due; remember how far time has provably advanced.
            self.anchor = self.anchor.max(bound.0);
            return None;
        }
        self.anchor = self.anchor.max(t);
        let e = self.buckets[slot][idx];
        self.remove_at(slot, idx);
        Some((t, rank, e.key, e.gen))
    }

    /// Removes and returns the earliest timer unconditionally.
    pub fn pop_earliest(&mut self) -> Option<(Ns, u64, u32, u64)> {
        self.pop_before((Ns::MAX, u64::MAX))
    }

    /// Unlinks `buckets[slot][idx]`, patching the location map for the
    /// entry `swap_remove` moved and the occupancy mask for emptied
    /// buckets.
    fn remove_at(&mut self, slot: usize, idx: usize) {
        let b = &mut self.buckets[slot];
        let gone = b.swap_remove(idx);
        self.loc[gone.key as usize] = (Self::NO_SLOT, 0);
        if let Some(moved) = b.get(idx) {
            self.loc[moved.key as usize] = (slot as u16, idx as u32);
        }
        if b.is_empty() && slot < Self::OVERFLOW_SLOT {
            self.occ[slot / 64] &= !(1u64 << (slot % 64));
        }
        self.len -= 1;
    }
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel::new()
    }
}

/// Runtime-selectable scheduler, so one engine serves both the fast path
/// and the reference path (see [`crate::types::Scheduler`]).
// One queue per simulation, so the unboxed lanes cost nothing worth a
// pointer chase on every push and pop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum EventQueue<E> {
    /// Delay lanes over a heap (default).
    Lanes(DelayLanes<E>),
    /// The reference binary heap.
    Heap(HeapQueue<E>),
}

impl<E> EventQueue<E> {
    /// Creates the scheduler selected by `kind`.
    pub fn new(kind: crate::types::Scheduler) -> EventQueue<E> {
        match kind {
            crate::types::Scheduler::Auto => EventQueue::Lanes(DelayLanes::new()),
            crate::types::Scheduler::ReferenceHeap => EventQueue::Heap(HeapQueue::new()),
        }
    }

    /// Inserts an event. `(t, rank)` must be unique.
    #[inline]
    pub fn push(&mut self, t: Ns, rank: u64, ev: E) {
        match self {
            EventQueue::Lanes(q) => q.push(t, rank, ev),
            EventQueue::Heap(q) => q.push(t, rank, ev),
        }
    }

    /// Removes and returns the earliest event by `(t, rank)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(Ns, u64, E)> {
        match self {
            EventQueue::Lanes(q) => q.pop(),
            EventQueue::Heap(q) => q.pop(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match self {
            EventQueue::Lanes(q) => q.len(),
            EventQueue::Heap(q) => q.len(),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    type E = u64;

    /// [`DelayLanes`] and [`HeapQueue`] driven in lockstep: every push goes
    /// to both, every pop must agree, and popped times never decrease.
    #[derive(Default)]
    struct Lockstep {
        lanes: DelayLanes<E>,
        heap: HeapQueue<E>,
        pushes: u64,
        now: Ns,
    }

    impl Lockstep {
        /// Pushes at absolute time `t` with a fresh unique rank whose high
        /// bits are scrambled, so ranks do not follow push order — as the
        /// engine's content ranks do not — and same-time pushes land
        /// below a lane's tail.
        fn push(&mut self, t: Ns) -> u64 {
            self.pushes += 1;
            let rank = (self.pushes.wrapping_mul(0x9E37_79B9) & 0xFFFF) << 32 | self.pushes;
            self.push_ranked(t, rank);
            rank
        }

        fn push_ranked(&mut self, t: Ns, rank: u64) {
            self.lanes.push(t, rank, rank);
            self.heap.push(t, rank, rank);
        }

        fn pop(&mut self) -> Option<(Ns, u64, E)> {
            let a = self.lanes.pop();
            assert_eq!(a, self.heap.pop());
            assert_eq!(self.lanes.len(), self.heap.len());
            if let Some((t, _, _)) = a {
                assert!(t >= self.now, "clock ran backwards: {t} < {}", self.now);
                self.now = t;
            }
            a
        }

        fn drain(&mut self) -> usize {
            let mut n = 0;
            while self.pop().is_some() {
                n += 1;
            }
            assert!(self.lanes.is_empty());
            n
        }
    }

    #[test]
    fn empty_and_single_event() {
        let mut q = Lockstep::default();
        assert!(q.lanes.is_empty());
        assert_eq!(q.pop(), None);
        let r = q.push(12_345);
        assert_eq!(q.lanes.len(), 1);
        assert_eq!(q.pop(), Some((12_345, r, r)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_ties_across_lanes_break_by_rank() {
        // Events for one instant arrive through different lanes (pushed
        // from different `now`s, hence different delays) and through the
        // heap; rank alone must order them.
        let mut q = Lockstep::default();
        for i in 0..32 {
            q.push(1_000 + (i % 4) * 100);
        }
        for _ in 0..8 {
            let (now, _, _) = q.pop().expect("pending");
            for _ in 0..4 {
                q.push(5_000);
                q.push(now);
            }
        }
        assert_eq!(q.drain(), 24 + 64);
        assert!(q.lanes.lane_pushes > 0);
    }

    #[test]
    fn lanes_exhaust_then_get_reused() {
        // Eight delays with two events each hold every lane past a single
        // entry, so four more delays find no lane and fall back to the
        // heap; once drained, the lanes take new delays.
        let mut q = Lockstep::default();
        for d in 1..=8 {
            q.push(d * 1_000);
            q.push(d * 1_000);
        }
        for d in 9..=12 {
            q.push(d * 1_000);
        }
        assert_eq!((q.lanes.lane_pushes, q.lanes.heap_pushes), (16, 4));
        q.drain();
        let now = q.now;
        for _ in 0..3 {
            for d in 20..28 {
                q.push(now + d * 1_000);
            }
        }
        assert_eq!((q.lanes.lane_pushes, q.lanes.heap_pushes), (40, 4));
        q.drain();
    }

    #[test]
    fn one_off_delay_yields_its_lane() {
        // Eight far-apart one-off events hold one entry per lane. A ninth,
        // later one evicts none of them. A short recurring delay reclaims
        // the lane of the latest event (8 ms), whose entry moves to the
        // heap; a 7.5 ms event then finds no longer single-entry lane.
        let mut q = Lockstep::default();
        for d in 1..=8 {
            q.push(d * 1_000_000);
        }
        q.push(9_000_000);
        assert_eq!((q.lanes.lane_pushes, q.lanes.heap_pushes), (8, 1));
        q.push(500);
        q.push(500);
        assert_eq!((q.lanes.lane_pushes, q.lanes.heap_pushes), (10, 2));
        q.push(7_500_000);
        assert_eq!((q.lanes.lane_pushes, q.lanes.heap_pushes), (10, 3));
        assert_eq!(q.drain(), 12);
    }

    #[test]
    fn same_time_key_below_a_lane_tail_is_inserted_in_order() {
        // Two handlers at one instant push to the same delay: the second
        // push shares the tail's time but has a lower rank, so it walks
        // back over the same-time run instead of leaving the lanes.
        let mut q = Lockstep::default();
        q.push_ranked(100, 50);
        assert_eq!(q.pop(), Some((100, 50, 50)));
        q.push_ranked(1_300, 20);
        q.push_ranked(1_300, 40);
        q.push_ranked(1_300, 30);
        q.push_ranked(1_300, 10);
        assert_eq!((q.lanes.lane_pushes, q.lanes.heap_pushes), (5, 0));
        for r in [10, 20, 30, 40] {
            assert_eq!(q.pop(), Some((1_300, r, r)));
        }
        assert_eq!(q.drain(), 0);
    }

    #[test]
    fn key_below_an_occupied_lane_tail_goes_to_the_heap() {
        // The engine can pop an event, handle an earlier timer and return
        // the event, so the last popped time steps back. A push at a
        // lane's delay from there lands below that lane's tail: only the
        // heap can take it.
        let mut q: DelayLanes<E> = DelayLanes::new();
        q.push(1_000, 1, 1);
        assert_eq!(q.pop(), Some((1_000, 1, 1)));
        q.push(1_300, 2, 2);
        q.push(900, 3, 3);
        assert_eq!(q.pop(), Some((900, 3, 3)));
        q.push(1_200, 4, 4);
        assert_eq!((q.lane_pushes, q.heap_pushes), (2, 2));
        assert_eq!(q.pop(), Some((1_200, 4, 4)));
        assert_eq!(q.pop(), Some((1_300, 2, 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_and_saturated_keys_stay_ordered() {
        // Install-time control events, near-future traffic, and mid-run
        // deadlines hours away or saturated to `Ns::MAX` (a control plane
        // that never reconverges) must all sort correctly.
        let mut q = Lockstep::default();
        for t in [2_000_000u64, 5_000_000, 5_000_000, Ns::MAX - 5, Ns::MAX] {
            q.push(t);
        }
        for i in 0..100u64 {
            q.push(i * 1_700);
        }
        let mut popped = 0u32;
        while let Some((now, _, _)) = q.pop() {
            popped += 1;
            match popped {
                40 => {
                    q.push(now + 100_000);
                }
                60 => {
                    q.push(now.saturating_add(3_600_000_000_000));
                }
                80 => {
                    q.push(now.saturating_add(Ns::MAX));
                }
                _ => {}
            }
        }
        assert_eq!((popped, q.now), (108, Ns::MAX));
        // Pushes at the clock's ceiling still come out, in rank order.
        q.push(Ns::MAX);
        q.push(Ns::MAX);
        assert_eq!(q.drain(), 2);
    }

    #[test]
    fn random_interleavings_match_heap() {
        // The engine's pattern: pop one, push a few at `now + d` from a
        // small delay set (lanes) or at scattered times (heap), with
        // ranks unrelated to push order, so same-instant pushes insert
        // below lane tails. Four delay-set sizes span all-lanes to lane
        // exhaustion.
        for (seed, ndelays) in [(1u64, 1u64), (2, 3), (3, 8), (4, 20)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let delays: Vec<Ns> = (0..ndelays).map(|i| 32 + i * 517).collect();
            let mut q = Lockstep::default();
            for i in 0..64 {
                q.push(i * 13);
            }
            for _ in 0..20_000 {
                let Some((now, _, _)) = q.pop() else { break };
                for _ in 0..rng.gen_range(0..4u32) {
                    if rng.gen_range(0..20u32) == 0 {
                        q.push(now + rng.gen_range(0..5_000_000));
                    } else {
                        q.push(now + delays[rng.gen_range(0..delays.len())]);
                    }
                }
            }
            q.drain();
            // Both paths must have carried traffic for the check to count.
            assert!(q.lanes.lane_pushes > 0 && q.lanes.heap_pushes > 0);
        }
    }

    // ---- timer wheel ----

    /// Reference model for the wheel: a sorted set of (t, rank, key, gen)
    /// plus the same one-live-entry-per-key rule.
    #[derive(Default)]
    struct WheelModel {
        set: std::collections::BTreeSet<(Ns, u64, u32, u64)>,
        by_key: std::collections::HashMap<u32, (Ns, u64, u32, u64)>,
    }

    impl WheelModel {
        fn insert(&mut self, t: Ns, rank: u64, key: u32, gen: u64) {
            assert!(!self.by_key.contains_key(&key));
            self.set.insert((t, rank, key, gen));
            self.by_key.insert(key, (t, rank, key, gen));
        }
        fn cancel(&mut self, key: u32) -> bool {
            match self.by_key.remove(&key) {
                Some(e) => {
                    self.set.remove(&e);
                    true
                }
                None => false,
            }
        }
        fn pop_before(&mut self, bound: (Ns, u64)) -> Option<(Ns, u64, u32, u64)> {
            let &e = self.set.first()?;
            if (e.0, e.1) >= bound {
                return None;
            }
            self.set.remove(&e);
            self.by_key.remove(&e.2);
            Some(e)
        }
    }

    #[test]
    fn wheel_single_timer_roundtrip() {
        let mut w = TimerWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.pop_earliest(), None);
        w.insert(1_000_000, 5, 3, 17);
        assert_eq!(w.len(), 1);
        // Not due before its own key.
        assert_eq!(w.pop_before((1_000_000, 5)), None);
        assert_eq!(w.pop_before((1_000_000, 6)), Some((1_000_000, 5, 3, 17)));
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_cancel_then_rearm() {
        let mut w = TimerWheel::new();
        w.insert(1_000_000, 1, 0, 1);
        assert!(w.cancel(0));
        assert!(!w.cancel(0), "double cancel");
        assert!(!w.cancel(99), "unknown key");
        w.insert(2_000_000, 2, 0, 2);
        assert_eq!(w.pop_earliest(), Some((2_000_000, 2, 0, 2)));
        assert_eq!(w.pop_earliest(), None);
    }

    #[test]
    fn wheel_rearm_without_cancel_replaces() {
        // Re-arming a live key must replace the old entry, not orphan it:
        // the old deadline never fires and the new one stays cancellable.
        let mut w = TimerWheel::new();
        w.insert(1_000_000, 1, 0, 1);
        w.insert(2_000_000, 2, 0, 2); // same key, no cancel
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_earliest(), Some((2_000_000, 2, 0, 2)));
        assert_eq!(w.pop_earliest(), None);
        // Replacement across buckets (old in level 0, new in overflow).
        w.insert(3_000_000, 3, 7, 1);
        w.insert(9_000_000_000_000, 4, 7, 2);
        assert_eq!(w.len(), 1);
        assert!(w.cancel(7), "replacement entry must be cancellable");
        assert_eq!(w.pop_earliest(), None);
    }

    #[test]
    fn wheel_spans_all_levels_and_overflow() {
        // One timer per level span plus one beyond the whole wheel
        // (> 2^40 ns): all must drain in (t, rank) order.
        let mut w = TimerWheel::new();
        let times = [
            40_000u64,         // level 0
            10_000_000,        // level 1 (10 ms)
            1_000_000_000,     // level 2 (1 s)
            60_000_000_000,    // level 3 (1 min)
            5_000_000_000_000, // overflow (~83 min)
        ];
        for (i, &t) in times.iter().enumerate() {
            w.insert(t, i as u64, i as u32, 0);
        }
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(w.pop_earliest(), Some((t, i as u64, i as u32, 0)));
        }
        assert_eq!(w.pop_earliest(), None);
    }

    #[test]
    fn wheel_matches_model_under_rto_like_traffic() {
        // The engine's exact usage pattern: monotonic now, per-key
        // cancel + re-arm on most steps, occasional pops of due timers.
        let mut w = TimerWheel::new();
        let mut m = WheelModel::default();
        let mut rng = SmallRng::seed_from_u64(0xCAFE);
        let mut now = 0u64;
        let mut seq = 0u64;
        for step in 0..20_000u64 {
            now += rng.gen_range(0..80_000);
            // Everything due strictly before (now, step-scoped seq) fires,
            // in lockstep with the model.
            loop {
                let a = w.pop_before((now, 0));
                let b = m.pop_before((now, 0));
                assert_eq!(a, b, "step {step}");
                if a.is_none() {
                    break;
                }
            }
            let key = rng.gen_range(0..64u32);
            match rng.gen_range(0..10u32) {
                0..=6 => {
                    // Re-arm: cancel + insert, like an ACK re-arming an RTO.
                    let had_w = w.cancel(key);
                    let had_m = m.cancel(key);
                    assert_eq!(had_w, had_m);
                    seq += 1;
                    let dt = if rng.gen_bool(0.02) {
                        rng.gen_range(0..5_000_000_000_000u64) // deep future
                    } else {
                        1_000_000 + rng.gen_range(0..300_000_000) // RTO-ish
                    };
                    w.insert(now + dt, seq, key, seq);
                    m.insert(now + dt, seq, key, seq);
                }
                7..=8 => {
                    assert_eq!(w.cancel(key), m.cancel(key));
                }
                _ => {}
            }
            assert_eq!(w.len(), m.set.len());
        }
        // Drain what remains.
        loop {
            let a = w.pop_earliest();
            let b = m.pop_before((Ns::MAX, u64::MAX));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
