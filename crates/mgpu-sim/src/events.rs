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
