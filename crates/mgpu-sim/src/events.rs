//! Deterministic discrete-event queue.
//!
//! Events are ordered by time; ties break by insertion order (FIFO), which
//! keeps simulations deterministic regardless of payload type.
//!
//! Two implementations share that contract:
//!
//! * [`EventQueue`] — a calendar queue (bucketed time wheel). Near-future
//!   events (within [`WHEEL_SPAN`] cycles of the clock) go straight into a
//!   per-cycle bucket, so `schedule` and `pop` are O(1) amortized with no
//!   heap sift. Far-future events park in an overflow binary heap and
//!   migrate into the wheel as the clock advances. This is the engine's
//!   hot-path queue: simulation event gaps (link latency, DRAM access,
//!   flush timeouts) are typically a few hundred cycles, far inside the
//!   wheel span.
//! * [`HeapEventQueue`] — the original binary-heap queue, kept as the
//!   reference oracle. Property tests drive both with the same operation
//!   sequences and require identical pop streams.
//!
//! # Storage
//!
//! The wheel allocates nothing once warm. Every bucket is a singly linked
//! FIFO threaded through one slab of `(next, event)` slots by `u32`
//! indices: a bucket is just a `head`/`tail` pair, popped slots go on a
//! free list, and the slab only grows to the peak number of pending wheel
//! events. A 4096-bit occupancy bitmap marks the non-empty buckets, so
//! `pop` and `peek_time` jump to the next occupied cycle with
//! `trailing_zeros` (at most 64 word reads) instead of walking empty
//! cycles one at a time. Slots store no timestamp: the wheel only ever
//! holds times in `[now, now + WHEEL_SPAN)`, so a bucket's index and the
//! clock determine its absolute time.
//!
//! # Ordering equivalence
//!
//! The wheel reproduces heap order exactly because of two invariants:
//!
//! 1. Every pending event with time `< horizon` lives in the wheel;
//!    everything at or past `horizon` lives in the overflow heap. The
//!    horizon only advances (with the clock), and overflow events migrate
//!    into the wheel the moment the advancing horizon passes them.
//! 2. A bucket's entries are always in ascending sequence order: direct
//!    inserts append in call (= sequence) order, and a migrated batch for
//!    some time `t` lands before any direct insert for `t` can exist —
//!    a direct insert for `t` requires `t < horizon`, which first becomes
//!    true at the very migration that drains every overflow entry for `t`
//!    (all of which carry smaller sequence numbers).

use mgpu_types::Cycle;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Cycles covered by the calendar wheel ahead of the clock. Power of two
/// so bucket indexing is a mask, sized to swallow the simulator's typical
/// event horizons (link latencies ~100, DRAM ~200, flush timeouts ~160).
pub const WHEEL_SPAN: u64 = 1 << 12;

const WHEEL_MASK: u64 = WHEEL_SPAN - 1;

/// Words in the bucket-occupancy bitmap.
const BITMAP_WORDS: usize = (WHEEL_SPAN / 64) as usize;

/// Null slab index: the end of a bucket chain or of the free list.
const NIL: u32 = u32::MAX;

/// One scheduled entry: ordered by `(time, seq)` ascending.
struct Entry<E> {
    time: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first ordering.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A slab slot: the next slot of its bucket chain (or of the free list)
/// and the event, `None` while the slot is free.
struct Slot<E> {
    next: u32,
    event: Option<E>,
}

/// First and last slab slot of one bucket's FIFO chain. Only meaningful
/// while the bucket's occupancy bit is set.
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

/// A time-ordered event queue with FIFO tie-breaking, implemented as a
/// calendar queue (per-cycle buckets plus a far-future overflow heap).
///
/// # Examples
///
/// ```
/// use mgpu_sim::events::EventQueue;
/// use mgpu_types::Cycle;
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycle::new(3), "late");
/// q.schedule(Cycle::new(1), "early");
/// q.schedule(Cycle::new(1), "early-second");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, vec!["early", "early-second", "late"]);
/// ```
pub struct EventQueue<E> {
    /// `WHEEL_SPAN` per-cycle buckets; bucket `t & WHEEL_MASK` holds the
    /// events for the unique time `t` inside `[now, horizon)` that maps to
    /// it. Each bucket is FIFO in sequence order (see module docs).
    buckets: Vec<Chain>,
    /// Bit `i` set iff bucket `i` is non-empty.
    occupied: [u64; BITMAP_WORDS],
    /// Storage for every wheel entry, linked per bucket.
    slab: Vec<Slot<E>>,
    /// Head of the free-slot list threaded through `Slot::next`.
    free: u32,
    /// Pending events currently in the wheel.
    wheel_len: usize,
    /// Exclusive upper bound of wheel coverage: wheel entries have
    /// `time < horizon`, overflow entries `time >= horizon`.
    horizon: u64,
    /// Far-future events, ordered `(time, seq)` ascending.
    overflow: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Cycle,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            buckets: vec![
                Chain {
                    head: NIL,
                    tail: NIL
                };
                WHEEL_SPAN as usize
            ],
            occupied: [0; BITMAP_WORDS],
            slab: Vec::new(),
            free: NIL,
            wheel_len: 0,
            horizon: WHEEL_SPAN,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            now: Cycle::ZERO,
        }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time — an
    /// event cannot fire in the past.
    pub fn schedule(&mut self, time: Cycle, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < now {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let t = time.as_u64();
        if t < self.horizon {
            self.push_back((t & WHEEL_MASK) as usize, event);
        } else {
            self.overflow.push(Entry { time, seq, event });
        }
    }

    /// Appends `event` to bucket `bucket`, reusing a free slab slot when
    /// one exists.
    fn push_back(&mut self, bucket: usize, event: E) {
        let slot = if self.free == NIL {
            let slot = u32::try_from(self.slab.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("fewer than u32::MAX pending wheel events");
            self.slab.push(Slot {
                next: NIL,
                event: Some(event),
            });
            slot
        } else {
            let slot = self.free;
            let s = &mut self.slab[slot as usize];
            self.free = s.next;
            s.next = NIL;
            s.event = Some(event);
            slot
        };
        let (word, bit) = (bucket / 64, 1u64 << (bucket % 64));
        let chain = &mut self.buckets[bucket];
        if self.occupied[word] & bit == 0 {
            self.occupied[word] |= bit;
            chain.head = slot;
        } else {
            self.slab[chain.tail as usize].next = slot;
        }
        chain.tail = slot;
        self.wheel_len += 1;
    }

    /// Unlinks and returns the front event of non-empty bucket `bucket`,
    /// returning its slot to the free list.
    fn pop_front(&mut self, bucket: usize) -> E {
        let chain = &mut self.buckets[bucket];
        let slot = chain.head;
        let s = &mut self.slab[slot as usize];
        let event = s.event.take().expect("occupied bucket holds an event");
        if s.next == NIL {
            self.occupied[bucket / 64] &= !(1u64 << (bucket % 64));
        } else {
            chain.head = s.next;
        }
        s.next = self.free;
        self.free = slot;
        self.wheel_len -= 1;
        event
    }

    /// The earliest non-empty bucket and its absolute time. Requires a
    /// non-empty wheel. Wheel times lie in `[now, now + WHEEL_SPAN)`, so
    /// scanning the bitmap cyclically from the clock's bucket visits
    /// buckets in time order.
    fn first_occupied(&self) -> (usize, u64) {
        debug_assert!(self.wheel_len > 0);
        let now = self.now.as_u64();
        let from = (now & WHEEL_MASK) as usize;
        let mut word = from / 64;
        let mut bits = self.occupied[word] & (!0u64 << (from % 64));
        while bits == 0 {
            word = (word + 1) % BITMAP_WORDS;
            bits = self.occupied[word];
        }
        let bucket = word * 64 + bits.trailing_zeros() as usize;
        let ahead = (bucket as u64).wrapping_sub(from as u64) & WHEEL_MASK;
        (bucket, now + ahead)
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let (time, event) = if self.wheel_len > 0 {
            // The wheel always wins: every wheel entry is earlier than the
            // horizon, every overflow entry at or past it.
            let (bucket, t) = self.first_occupied();
            (Cycle::new(t), self.pop_front(bucket))
        } else {
            let entry = self.overflow.pop()?;
            (entry.time, entry.event)
        };
        self.now = time;
        self.migrate();
        Some((time, event))
    }

    /// Moves overflow events the advancing horizon now covers into their
    /// buckets. The heap yields them `(time, seq)` ascending, so each
    /// bucket receives its migrants in sequence order.
    fn migrate(&mut self) {
        let new_horizon = self.now.as_u64() + WHEEL_SPAN;
        if new_horizon <= self.horizon {
            return;
        }
        self.horizon = new_horizon;
        while self
            .overflow
            .peek()
            .is_some_and(|e| e.time.as_u64() < self.horizon)
        {
            let e = self.overflow.pop().expect("peeked entry exists");
            self.push_back((e.time.as_u64() & WHEEL_MASK) as usize, e.event);
        }
    }

    /// The timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.wheel_len > 0 {
            return Some(Cycle::new(self.first_occupied().1));
        }
        self.overflow.peek().map(|e| e.time)
    }

    /// The current simulation time (timestamp of the last popped event).
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> core::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

/// The original binary-heap event queue: same `(time, seq)` FIFO contract
/// as [`EventQueue`], kept as the reference oracle for equivalence tests.
///
/// # Examples
///
/// ```
/// use mgpu_sim::events::HeapEventQueue;
/// use mgpu_types::Cycle;
///
/// let mut q = HeapEventQueue::new();
/// q.schedule(Cycle::new(2), "b");
/// q.schedule(Cycle::new(1), "a");
/// assert_eq!(q.pop(), Some((Cycle::new(1), "a")));
/// ```
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Cycle,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Cycle::ZERO,
        }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time.
    pub fn schedule(&mut self, time: Cycle, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < now {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// The timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.time)
    }

    /// The current simulation time (timestamp of the last popped event).
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> core::fmt::Debug for HeapEventQueue<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HeapEventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .finish()
    }
}

/// Creation-lineage ordering stamp for sharded (multi-queue) execution.
///
/// A single global queue breaks same-cycle ties by a global insertion
/// sequence number: events created earlier pop first. Sharded execution
/// has no global counter, so each event instead carries a stamp that lets
/// any two stamps be compared *as if* global sequence numbers existed:
///
/// * `create` — fire time of the *creating* event (the one whose handler
///   scheduled this event); `Cycle::ZERO` for pre-loop roots,
/// * `shard`  — the shard whose handler created this event,
/// * `seq`    — that shard's private creation counter (for roots: the
///   globally agreed root rank),
/// * `parent` — the full stamp of the creating event, shared via `Arc`
///   (absent for roots).
///
/// Comparison reproduces the global creation order exactly:
///
/// 1. Two events created by the **same shard** compare by `seq` alone —
///    a shard creates events in its local pop order, which (inductively)
///    is the global order restricted to that shard.
/// 2. Otherwise compare `create`: the global counter gives the event
///    created at the earlier cycle the smaller sequence number.
/// 3. Equal `create` means both creating events fired at the same cycle;
///    their pop order decides — recurse into the parents. Different-shard
///    events always have different creators (one handler runs on exactly
///    one shard), so the recursion terminates at a strict comparison or
///    at two roots, which carry globally agreed ranks in `seq`.
///
/// The recursion depth is the length of the common lineage prefix. Two
/// independent issue cadences can stay in lockstep for many generations
/// (the creating event of each generation fired the same cycle on both
/// chains), which is exactly why any *finite* lineage prefix fails: the
/// distinguishing ancestor recedes one generation per cycle step. Sharing
/// the chain through `Arc` makes the comparison exact at O(1) amortized
/// memory per created event, and rule 1 short-circuits every same-shard
/// comparison — deep walks only happen for cross-shard lockstep ties.
///
/// # Ordering invariant
///
/// Engine-generated stamps satisfy: on one shard, `seq` order is
/// consistent with `create` order (a shard's creation counter advances
/// with its clock). Hand-built stamps must respect this too — rule 1 is a
/// shortcut, not an independent ordering.
#[derive(Clone)]
pub struct Stamp {
    /// Fire time of the event whose handler scheduled this one
    /// (`Cycle::ZERO` for roots).
    pub create: Cycle,
    /// Shard that created this event.
    pub shard: u16,
    /// Creation counter private to `shard`; global root rank for roots.
    pub seq: u64,
    /// Stamp of the creating event; `None` for roots.
    pub parent: Option<Arc<Stamp>>,
}

impl Stamp {
    /// Stamp for a root event scheduled before the engine starts (initial
    /// issue kicks, the first sample tick). `seq` must be the *global*
    /// root rank, agreed by all shards: legacy assigns roots the first
    /// sequence numbers in root creation order, and cross-shard root
    /// comparisons bottom out here.
    #[must_use]
    pub fn root(shard: u16, seq: u64) -> Self {
        Stamp {
            create: Cycle::ZERO,
            shard,
            seq,
            parent: None,
        }
    }

    /// Stamp for an event scheduled by a handler running at `now` on
    /// `shard`, where `parent` is the stamp of the event being handled.
    #[must_use]
    pub fn child(parent: &Arc<Stamp>, now: Cycle, shard: u16, seq: u64) -> Self {
        Stamp {
            create: now,
            shard,
            seq,
            parent: Some(Arc::clone(parent)),
        }
    }

    /// Lineage depth (number of ancestors); a root has depth 0.
    #[must_use]
    pub fn depth(&self) -> usize {
        let mut d = 0;
        let mut cur = self.parent.as_deref();
        while let Some(p) = cur {
            d += 1;
            cur = p.parent.as_deref();
        }
        d
    }
}

impl PartialEq for Stamp {
    fn eq(&self, other: &Self) -> bool {
        // (shard, seq) identifies an event: seq is unique per shard.
        self.shard == other.shard && self.seq == other.seq
    }
}

impl Eq for Stamp {}

impl PartialOrd for Stamp {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Stamp {
    fn cmp(&self, other: &Self) -> Ordering {
        // Iterative: lockstep lineages can be tens of thousands of links
        // deep, far past any safe recursion depth.
        let (mut a, mut b) = (self, other);
        loop {
            if a.shard == b.shard {
                // Same creating shard: local creation order is the global
                // order restricted to the shard. Strict unless `a` and `b`
                // are the same event (only possible at the entry level:
                // one step up, two chains meeting at the same ancestor
                // would have been resolved as same-shard siblings first).
                return a.seq.cmp(&b.seq);
            }
            match a.create.cmp(&b.create) {
                Ordering::Equal => {}
                ord => return ord,
            }
            match (&a.parent, &b.parent) {
                (Some(pa), Some(pb)) => {
                    a = pa;
                    b = pb;
                }
                // Roots precede any handler-created event of the same
                // cycle (legacy hands out root sequence numbers first);
                // two roots order by their global ranks in `seq`.
                (None, None) => return a.seq.cmp(&b.seq).then_with(|| a.shard.cmp(&b.shard)),
                (None, Some(_)) => return Ordering::Less,
                (Some(_), None) => return Ordering::Greater,
            }
        }
    }
}

impl Drop for Stamp {
    fn drop(&mut self) {
        // Dismantle the lineage chain iteratively: dropping the last
        // holder of a deep chain would otherwise recurse per link.
        let mut cur = self.parent.take();
        while let Some(arc) = cur {
            match Arc::try_unwrap(arc) {
                Ok(mut inner) => cur = inner.parent.take(),
                // The tail is still shared; its other owners drop it.
                Err(_) => break,
            }
        }
    }
}

impl core::fmt::Debug for Stamp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Deliberately shallow: printing the whole lineage chain would
        // emit thousands of nodes for long runs.
        f.debug_struct("Stamp")
            .field("create", &self.create)
            .field("shard", &self.shard)
            .field("seq", &self.seq)
            .field("depth", &self.depth())
            .finish()
    }
}

struct StampedEntry<E> {
    fire: Cycle,
    stamp: Stamp,
    event: E,
}

impl<E> PartialEq for StampedEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.fire == other.fire && self.stamp == other.stamp
    }
}

impl<E> Eq for StampedEntry<E> {}

impl<E> PartialOrd for StampedEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for StampedEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap; reverse for earliest-first ordering.
        other
            .fire
            .cmp(&self.fire)
            .then_with(|| other.stamp.cmp(&self.stamp))
    }
}

/// Per-shard event queue for conservative time-window synchronization.
///
/// Orders events by `(fire, `[`Stamp`]`)` — a total order, so the result
/// of merging inbound mailbox messages is independent of arrival order —
/// and exposes [`ShardQueue::pop_before`], the window-bounded pop that
/// lets a shard drain exactly the events inside `[window start, window
/// end)` before synchronizing with its peers.
///
/// # Examples
///
/// ```
/// use mgpu_sim::events::{ShardQueue, Stamp};
/// use mgpu_types::Cycle;
///
/// let mut q = ShardQueue::new();
/// q.schedule(Cycle::new(5), Stamp::root(0, 1), "b");
/// q.schedule(Cycle::new(5), Stamp::root(0, 0), "a");
/// q.schedule(Cycle::new(9), Stamp::root(0, 2), "c");
/// // Window [0, 8): only the two cycle-5 events pop, stamp-ordered.
/// assert_eq!(q.pop_before(Cycle::new(8)).map(|(_, _, e)| e), Some("a"));
/// assert_eq!(q.pop_before(Cycle::new(8)).map(|(_, _, e)| e), Some("b"));
/// assert_eq!(q.pop_before(Cycle::new(8)), None);
/// assert_eq!(q.peek_time(), Some(Cycle::new(9)));
/// ```
pub struct ShardQueue<E> {
    heap: BinaryHeap<StampedEntry<E>>,
    now: Cycle,
}

impl<E> Default for ShardQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ShardQueue<E> {
    /// Creates an empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        ShardQueue {
            heap: BinaryHeap::new(),
            now: Cycle::ZERO,
        }
    }

    /// Schedules `event` to fire at `fire` with ordering stamp `stamp`.
    ///
    /// Also used to inject mailbox messages at window barriers: a
    /// conservative window guarantees cross-shard messages fire at or
    /// after the window end, so injection never lands in the local past.
    ///
    /// # Panics
    ///
    /// Panics if `fire` is earlier than the current shard-local time.
    pub fn schedule(&mut self, fire: Cycle, stamp: Stamp, event: E) {
        assert!(
            fire >= self.now,
            "cannot schedule into the past: {fire} < now {now}",
            now = self.now
        );
        self.heap.push(StampedEntry { fire, stamp, event });
    }

    /// Removes and returns the earliest event if it fires strictly before
    /// `limit`, advancing the shard-local clock to its timestamp. Returns
    /// `None` when the next event is at or past `limit` (the window is
    /// drained) or the queue is empty.
    pub fn pop_before(&mut self, limit: Cycle) -> Option<(Cycle, Stamp, E)> {
        if self.heap.peek().is_some_and(|e| e.fire < limit) {
            let e = self.heap.pop().expect("peeked entry exists");
            self.now = e.fire;
            Some((e.fire, e.stamp, e.event))
        } else {
            None
        }
    }

    /// The timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.fire)
    }

    /// The current shard-local time (timestamp of the last popped event).
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> core::fmt::Debug for ShardQueue<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ShardQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(30), 3);
        q.schedule(Cycle::new(10), 1);
        q.schedule(Cycle::new(20), 2);
        assert_eq!(q.pop(), Some((Cycle::new(10), 1)));
        assert_eq!(q.pop(), Some((Cycle::new(20), 2)));
        assert_eq!(q.pop(), Some((Cycle::new(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle::new(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle::new(5), i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Cycle::ZERO);
        q.schedule(Cycle::new(42), ());
        q.pop();
        assert_eq!(q.now(), Cycle::new(42));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(10), ());
        q.pop();
        q.schedule(Cycle::new(5), ());
    }

    #[test]
    #[should_panic(expected = "past")]
    fn heap_scheduling_into_the_past_panics() {
        let mut q = HeapEventQueue::new();
        q.schedule(Cycle::new(10), ());
        q.pop();
        q.schedule(Cycle::new(5), ());
    }

    #[test]
    fn same_time_scheduling_after_pop_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(10), 1);
        q.pop();
        q.schedule(Cycle::new(10), 2); // now == 10; same-cycle follow-up
        assert_eq!(q.pop(), Some((Cycle::new(10), 2)));
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Cycle::new(7), "x");
        q.schedule(Cycle::new(3), "y");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycle::new(3)));
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = EventQueue::new();
        let far = Cycle::new(3 * WHEEL_SPAN + 17);
        q.schedule(far, "far");
        q.schedule(Cycle::new(1), "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((Cycle::new(1), "near")));
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop(), Some((far, "far")));
        assert!(q.is_empty());
    }

    #[test]
    fn migration_preserves_fifo_across_horizon() {
        let mut q = EventQueue::new();
        let far = Cycle::new(WHEEL_SPAN + 100); // beyond initial horizon
        q.schedule(far, 1); // seq 0: parks in overflow
        q.schedule(Cycle::new(500), 0); // wheel
        assert_eq!(q.pop(), Some((Cycle::new(500), 0))); // migrates `far`
        q.schedule(far, 2); // direct insert lands after the migrant
        assert_eq!(q.pop(), Some((far, 1)));
        assert_eq!(q.pop(), Some((far, 2)));
    }

    #[test]
    fn wheel_wraparound_reuses_buckets() {
        // March the clock several wheel spans forward in steps smaller
        // than the span, so buckets are reused many times.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        let mut t = 0u64;
        for i in 0..200u64 {
            t += 97; // co-prime with the span: hits every bucket eventually
            q.schedule(Cycle::new(t), i);
            expect.push((Cycle::new(t), i));
        }
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, expect);
    }

    /// Drains both queues in lockstep, checking `peek_time` against each
    /// pop, and returns the calendar queue's pop stream.
    fn drain_against_oracle<E: Clone + PartialEq + core::fmt::Debug>(
        cal: &mut EventQueue<E>,
        heap: &mut HeapEventQueue<E>,
    ) -> Vec<(Cycle, E)> {
        let mut out = Vec::new();
        loop {
            assert_eq!(cal.peek_time(), heap.peek_time());
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            match a {
                Some(x) => out.push(x),
                None => return out,
            }
        }
    }

    #[test]
    fn bucket_refilled_in_its_own_cycle_stays_fifo() {
        // Draining a bucket frees its slots; refilling it in the same
        // cycle reuses them, and FIFO order must survive the reuse.
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(5), 0);
        q.schedule(Cycle::new(5), 1);
        q.schedule(Cycle::new(9), 9);
        assert_eq!(q.pop(), Some((Cycle::new(5), 0)));
        assert_eq!(q.pop(), Some((Cycle::new(5), 1))); // bucket 5 now empty
        q.schedule(Cycle::new(5), 2);
        q.schedule(Cycle::new(5), 3);
        q.schedule(Cycle::new(9), 10);
        assert_eq!(q.peek_time(), Some(Cycle::new(5)));
        assert_eq!(q.pop(), Some((Cycle::new(5), 2)));
        q.schedule(Cycle::new(5), 4); // appended behind the surviving entry
        assert_eq!(q.pop(), Some((Cycle::new(5), 3)));
        assert_eq!(q.pop(), Some((Cycle::new(5), 4)));
        assert_eq!(q.pop(), Some((Cycle::new(9), 9)));
        assert_eq!(q.pop(), Some((Cycle::new(9), 10)));
        assert!(q.is_empty());
    }

    #[test]
    fn migrants_lead_a_bucket_that_direct_inserts_then_extend() {
        // Three overflow entries for one far cycle migrate together into
        // a single bucket while other buckets hold direct inserts; direct
        // inserts for the far cycle made after the migration append
        // behind the migrants.
        let far = Cycle::new(WHEEL_SPAN + 40);
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let both = |t: u64, e: u32, cal: &mut EventQueue<u32>, heap: &mut HeapEventQueue<u32>| {
            cal.schedule(Cycle::new(t), e);
            heap.schedule(Cycle::new(t), e);
        };
        let far = far.as_u64();
        for (t, e) in [(far, 0), (far, 1), (60, 2), (far, 3), (60, 4), (41, 5)] {
            both(t, e, &mut cal, &mut heap);
        }
        assert_eq!(cal.len(), 6);
        assert_eq!(heap.pop(), Some((Cycle::new(41), 5)));
        assert_eq!(cal.pop(), Some((Cycle::new(41), 5))); // migrates `far`
        both(far, 6, &mut cal, &mut heap);
        both(60, 7, &mut cal, &mut heap);
        let got: Vec<_> = drain_against_oracle(&mut cal, &mut heap)
            .into_iter()
            .map(|(_, e)| e)
            .collect();
        assert_eq!(got, vec![2, 4, 7, 0, 1, 3, 6]);
    }

    #[test]
    fn long_runs_wrap_several_spans_like_the_oracle() {
        // A self-sustaining event population whose clock crosses five
        // wheel spans, so every bucket and slab slot is reused repeatedly.
        const GAPS: [u64; 9] = [0, 1, 3, 97, 161, 1000, WHEEL_SPAN - 1, WHEEL_SPAN, 5000];
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        for i in 0..64u64 {
            cal.schedule(Cycle::new(i * 13), i);
            heap.schedule(Cycle::new(i * 13), i);
        }
        let mut next = 64u64;
        while cal.now().as_u64() < 5 * WHEEL_SPAN {
            assert_eq!(cal.peek_time(), heap.peek_time());
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            let (now, e) = a.expect("population never drains");
            let t = Cycle::new(now.as_u64() + 1 + GAPS[(e % 9) as usize]);
            cal.schedule(t, next);
            heap.schedule(t, next);
            next += 1;
        }
        assert_eq!(drain_against_oracle(&mut cal, &mut heap).len(), 64);
    }

    /// Pinned: merging two shards' mailbox messages into a `ShardQueue`
    /// yields one specific order — `(fire, lineage)` — no matter which
    /// mailbox drains first.
    #[test]
    fn shard_queue_merge_order_is_deterministic() {
        let r0 = Arc::new(Stamp::root(0, 0));
        let r1 = Arc::new(Stamp::root(1, 1));
        let mid_parent = Arc::new(Stamp::child(&r0, Cycle::new(4), 0, 3));
        let msgs = [
            // Cross-shard ties at the same fire cycle resolve by creation
            // cycle first, then by lineage down to the root ranks.
            (20, Stamp::child(&r1, Cycle::new(10), 1, 9), "d"),
            (20, Stamp::child(&r1, Cycle::new(5), 1, 4), "b"),
            (20, Stamp::child(&r0, Cycle::new(5), 0, 4), "a"),
            (20, Stamp::child(&r0, Cycle::new(10), 0, 6), "c"),
            (15, Stamp::child(&r1, Cycle::new(12), 1, 10), "first"),
            (20, Stamp::child(&mid_parent, Cycle::new(7), 0, 5), "mid"),
        ];
        let expect = ["first", "a", "b", "mid", "c", "d"];
        // Try both drain orders (shard 0's messages first, then shard 1's,
        // and vice versa): the pop stream must be identical.
        for reverse in [false, true] {
            let mut q = ShardQueue::new();
            let mut order: Vec<_> = msgs.to_vec();
            if reverse {
                order.reverse();
            }
            for (fire, stamp, payload) in order {
                q.schedule(Cycle::new(fire), stamp, payload);
            }
            let got: Vec<_> = std::iter::from_fn(|| q.pop_before(Cycle::new(u64::MAX)))
                .map(|(_, _, e)| e)
                .collect();
            assert_eq!(got, expect, "reverse={reverse}");
        }
    }

    /// With one shard stamping `create = now` and a monotonically
    /// increasing local counter, `ShardQueue` reproduces the global-queue
    /// `(time, seq)` FIFO order exactly — the shards=1 equivalence the
    /// sharded engine leans on.
    #[test]
    fn single_shard_stamps_match_global_fifo_order() {
        let mut global = HeapEventQueue::new();
        let mut sharded = ShardQueue::new();
        let root = Arc::new(Stamp::root(0, 0));
        let mut seq = 0u64;
        let mut schedule = |g: &mut HeapEventQueue<u64>, s: &mut ShardQueue<u64>, t: u64, now| {
            g.schedule(Cycle::new(t), seq);
            s.schedule(Cycle::new(t), Stamp::child(&root, now, 0, seq), seq);
            seq += 1;
        };
        for t in [5, 5, 3, 9, 3, 5] {
            schedule(&mut global, &mut sharded, t, Cycle::ZERO);
        }
        for _ in 0..6 {
            let (gt, ge) = global.pop().expect("global event");
            let (st, _, se) = sharded
                .pop_before(Cycle::new(u64::MAX))
                .expect("shard event");
            assert_eq!((gt, ge), (st, se));
            // Same-cycle follow-ups created "by" the popped event.
            if ge == 2 {
                schedule(&mut global, &mut sharded, gt.as_u64(), gt);
            }
        }
    }

    /// Two issue cadences on different shards can stay in creation-cycle
    /// lockstep for arbitrarily many generations; the order of their
    /// same-cycle descendants is then decided by the first lineage
    /// divergence — here, all the way back at the root ranks. A finite
    /// lineage prefix (the design this replaced) cannot see that deep.
    #[test]
    fn deep_lockstep_lineages_order_by_first_divergence() {
        let gap = 3u64;
        let grow = |root: Arc<Stamp>, shard: u16, generations: u64| {
            let mut tip = root;
            for g in 0..generations {
                let now = Cycle::new((g + 1) * gap);
                let seq = 100 + g; // same local counter values on both shards
                tip = Arc::new(Stamp::child(&tip, now, shard, seq));
            }
            tip
        };
        // Root ranks say shard 1's chain was created first.
        let a = grow(Arc::new(Stamp::root(0, 1)), 0, 40);
        let b = grow(Arc::new(Stamp::root(1, 0)), 1, 40);
        assert_eq!(a.depth(), 40);
        assert!(
            b.as_ref() < a.as_ref(),
            "root rank 0 wins through 40 lockstep generations"
        );
        // A single creation-cycle divergence near the tip overrides roots.
        let c = Arc::new(Stamp::child(
            &grow(Arc::new(Stamp::root(1, 0)), 1, 39),
            Cycle::new(40 * gap + 1),
            1,
            200,
        ));
        assert!(
            a.as_ref() < c.as_ref(),
            "later creation cycle loses regardless of root rank"
        );
    }

    #[test]
    fn pop_before_respects_the_window_bound() {
        let mut q = ShardQueue::new();
        q.schedule(Cycle::new(100), Stamp::root(0, 0), "in");
        q.schedule(Cycle::new(200), Stamp::root(0, 1), "out");
        assert_eq!(q.pop_before(Cycle::new(200)).map(|(_, _, e)| e), Some("in"));
        assert_eq!(q.pop_before(Cycle::new(200)), None); // fire == limit stays
        assert_eq!(q.now(), Cycle::new(100));
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_before(Cycle::new(201)).map(|(_, _, e)| e),
            Some("out")
        );
        assert!(q.is_empty());
    }

    mod prop_tests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn output_is_sorted(times in proptest::collection::vec(0u64..1000, 1..200)) {
                let mut q = EventQueue::new();
                for &t in &times {
                    q.schedule(Cycle::new(t), t);
                }
                let mut prev = 0u64;
                while let Some((t, _)) = q.pop() {
                    prop_assert!(t.as_u64() >= prev);
                    prev = t.as_u64();
                }
            }

            #[test]
            fn all_events_are_delivered(times in proptest::collection::vec(0u64..1000, 0..200)) {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(Cycle::new(t), i);
                }
                let mut seen = std::collections::HashSet::new();
                while let Some((_, i)) = q.pop() {
                    seen.insert(i);
                }
                prop_assert_eq!(seen.len(), times.len());
            }

            /// The calendar queue and the heap oracle, driven by one
            /// operation stream (schedules at `now + delta`, interleaved
            /// pops while draining), must produce identical pop streams.
            /// Deltas deliberately straddle `WHEEL_SPAN` so events land on
            /// both sides of the horizon, and delta 0 exercises same-cycle
            /// FIFO ties.
            #[test]
            fn calendar_matches_heap_oracle(
                ops in proptest::collection::vec((0u8..4, 0usize..12), 1..300)
            ) {
                // Deltas deliberately straddle WHEEL_SPAN so events land on
                // both sides of the horizon; delta 0 exercises same-cycle
                // FIFO ties.
                const DELTAS: [u64; 12] = [
                    0, 1, 2, 3, 50, 100, 161, 1000,
                    WHEEL_SPAN - 1, WHEEL_SPAN, WHEEL_SPAN + 1, 3 * WHEEL_SPAN,
                ];
                let mut cal = EventQueue::new();
                let mut heap = HeapEventQueue::new();
                let mut payload = 0u32;
                for &(kind, delta_idx) in &ops {
                    let delta = DELTAS[delta_idx];
                    if kind == 3 {
                        // Interleaved pop: schedule-while-draining.
                        prop_assert_eq!(cal.pop(), heap.pop());
                        prop_assert_eq!(cal.now(), heap.now());
                    } else {
                        let time = Cycle::new(cal.now().as_u64() + delta);
                        cal.schedule(time, payload);
                        heap.schedule(time, payload);
                        payload += 1;
                    }
                    prop_assert_eq!(cal.len(), heap.len());
                }
                loop {
                    let (a, b) = (cal.pop(), heap.pop());
                    prop_assert_eq!(a, b);
                    if a.is_none() {
                        break;
                    }
                }
            }

            /// Long, phase-structured runs against the heap oracle. Each
            /// phase mixes random operations, then pops until the clock
            /// passes a pacer event one span ahead, so every case wraps
            /// the wheel at least `phases` times. The operations cover
            /// buckets drained and refilled within their cycle (slot
            /// reuse), same-cycle bursts, and far events that migrate out
            /// of the overflow heap into buckets already holding entries;
            /// `peek_time` is checked against every pop.
            #[test]
            fn calendar_matches_heap_oracle_over_wrapping_runs(
                phases in 3usize..6,
                ops in proptest::collection::vec((0u8..6, 0usize..12), 1..120)
            ) {
                const DELTAS: [u64; 12] = [
                    0, 1, 2, 7, 50, 100, 161, 1000,
                    WHEEL_SPAN - 2, WHEEL_SPAN - 1, WHEEL_SPAN, WHEEL_SPAN + 1,
                ];
                let mut cal = EventQueue::new();
                let mut heap = HeapEventQueue::new();
                let mut payload = 0u32;
                let mut schedule = |cal: &mut EventQueue<u32>,
                                    heap: &mut HeapEventQueue<u32>,
                                    t: u64| {
                    cal.schedule(Cycle::new(t), payload);
                    heap.schedule(Cycle::new(t), payload);
                    payload += 1;
                };
                let pop = |cal: &mut EventQueue<u32>,
                           heap: &mut HeapEventQueue<u32>|
                           -> Result<Option<Cycle>, proptest::test_runner::TestCaseError> {
                    prop_assert_eq!(cal.peek_time(), heap.peek_time());
                    let (a, b) = (cal.pop(), heap.pop());
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(cal.now(), heap.now());
                    Ok(a.map(|(t, _)| t))
                };
                for _ in 0..phases {
                    for &(kind, d) in &ops {
                        let now = cal.now().as_u64();
                        match kind {
                            0 | 1 => schedule(&mut cal, &mut heap, now + DELTAS[d]),
                            2 => {
                                pop(&mut cal, &mut heap)?;
                            }
                            3 => {
                                // Pop, then refill the popped cycle: when
                                // that pop emptied its bucket, the refill
                                // reuses the freed slots.
                                if let Some(t) = pop(&mut cal, &mut heap)? {
                                    schedule(&mut cal, &mut heap, t.as_u64());
                                    schedule(&mut cal, &mut heap, t.as_u64());
                                }
                            }
                            4 => {
                                // Beyond the horizon: parks in overflow and
                                // later migrates next to direct inserts.
                                schedule(&mut cal, &mut heap, now + WHEEL_SPAN + DELTAS[d]);
                            }
                            _ => {
                                for _ in 0..3 {
                                    schedule(&mut cal, &mut heap, now + DELTAS[d]);
                                }
                            }
                        }
                        prop_assert_eq!(cal.len(), heap.len());
                    }
                    let pacer = cal.now().as_u64() + WHEEL_SPAN + 3;
                    schedule(&mut cal, &mut heap, pacer);
                    while cal.now().as_u64() < pacer {
                        pop(&mut cal, &mut heap)?;
                    }
                }
                prop_assert!(cal.now().as_u64() >= phases as u64 * WHEEL_SPAN);
                while pop(&mut cal, &mut heap)?.is_some() {}
                prop_assert!(cal.is_empty());
            }
        }
    }
}
