//! Proof that the wire harness's clean send → open → ACK path does not
//! allocate per block.
//!
//! A counting `#[global_allocator]` wraps the system allocator and counts
//! per thread, so sibling tests running concurrently in this binary never
//! land in each other's counts. With the adversary present but striking at
//! 0 ‰, every block the harness carries is sealed, opened into its
//! reusable plaintext buffer and acknowledged. After a warm-up, the
//! unbatched stream must not allocate at all; the batched stream may only
//! allocate per batch — the MAC vector each batch creates with its first
//! block and hands to its trailer — never per block.
//!
//! The engine's event queue is held to the same standard: once its slab,
//! free list and overflow heap have grown to the working population, a
//! queue whose clock keeps cycling through the wheel allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mgpu_sim::events::{EventQueue, WHEEL_SPAN};
use mgpu_system::WireHarness;
use mgpu_types::{AdversaryConfig, Cycle, NodeId, SystemConfig};

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Const-initialised and free
    /// of destructors, so reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` tolerates allocations made while the thread is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: pure pass-through to the system allocator — every contract
// (layout validity, pointer provenance) is forwarded unchanged from the
// caller, and the counter side effect never touches allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: caller upholds `alloc`'s contract; forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds `dealloc`'s contract; forwarded verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: caller upholds `realloc`'s contract; forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

const PAIRS: [(u16, u16); 3] = [(1, 2), (2, 3), (3, 1)];

/// Drives `blocks` blocks round-robin over three streams, starting at
/// block `from`, and returns the allocations made meanwhile.
fn stream(h: &mut WireHarness, from: usize, blocks: usize) -> u64 {
    let before = alloc_count();
    for i in from..from + blocks {
        let (src, dst) = PAIRS[i % PAIRS.len()];
        let tampered = h.on_block(
            Cycle::new(i as u64 * 10),
            NodeId::gpu(src),
            NodeId::gpu(dst),
        );
        assert_eq!(tampered, 0, "the adversary struck at 0 permille");
    }
    alloc_count() - before
}

fn harness(batching: bool) -> WireHarness {
    let mut cfg = SystemConfig::paper_4gpu();
    cfg.security.batching.enabled = batching;
    cfg.adversary = AdversaryConfig::active(0);
    WireHarness::new(&cfg)
}

#[test]
fn clean_unbatched_stream_is_allocation_free_after_warmup() {
    let mut h = harness(false);
    stream(&mut h, 0, 300);
    let allocations = stream(&mut h, 300, 3000);
    assert_eq!(allocations, 0, "clean unbatched harness stream allocated");
    let log = h.into_log();
    assert!(log.is_clean(), "{log:?}");
    assert_eq!(log.blocks_sealed(), 3300);
}

#[test]
fn clean_batched_stream_allocates_per_batch_not_per_block() {
    let mut h = harness(true);
    let batch_size = SystemConfig::paper_4gpu().security.batching.batch_size as usize;
    stream(&mut h, 0, 30 * batch_size);
    let blocks = 300 * batch_size;
    let allocations = stream(&mut h, 30 * batch_size, blocks);
    let batches = (blocks / batch_size) as u64;
    assert!(
        allocations <= batches,
        "clean batched harness stream allocated {allocations} times over {batches} batches \
         ({blocks} blocks) — expected at most 1 per batch"
    );
    let _ = h.finish(Cycle::new(u64::MAX / 2));
    let log = h.into_log();
    assert!(log.is_clean(), "{log:?}");
}

#[test]
fn warm_event_queue_is_allocation_free_across_wheel_spans() {
    // Same-cycle follow-ups, link and DRAM latencies, flush timeouts and
    // gaps past the wheel span (overflow heap, then migration).
    const GAPS: [u64; 8] = [0, 2, 7, 100, 161, 200, 1000, WHEEL_SPAN + 300];
    let mut q: EventQueue<(u64, u64)> = EventQueue::new();
    for i in 0..512u64 {
        q.schedule(Cycle::new(GAPS[(i % 8) as usize]), (i, 0));
    }
    // One pop, one schedule: the population stays constant.
    let churn = |q: &mut EventQueue<(u64, u64)>, spans: u64| {
        let until = q.now().as_u64() + spans * WHEEL_SPAN;
        let mut ops = 0u64;
        while q.now().as_u64() < until {
            let (now, (i, n)) = q.pop().expect("population never drains");
            q.schedule(
                Cycle::new(now.as_u64() + GAPS[((i + n) % 8) as usize]),
                (i, n + 1),
            );
            ops += 1;
        }
        ops
    };
    churn(&mut q, 3);
    let before = alloc_count();
    let ops = churn(&mut q, 4);
    let allocations = alloc_count() - before;
    assert_eq!(
        allocations, 0,
        "warm event queue allocated over {ops} operations"
    );
    assert!(ops > 5_000, "only {ops} operations");
    assert_eq!(q.len(), 512);
}
