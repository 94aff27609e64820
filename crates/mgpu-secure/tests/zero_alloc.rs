//! Proof that the steady-state secure-channel message path does not
//! allocate.
//!
//! A counting `#[global_allocator]` wraps the system allocator and counts
//! per thread, so sibling tests running concurrently in this binary never
//! land in each other's counts. After a warm-up phase (which grows every
//! reusable buffer and dense-table slot to its steady-state size), the
//! unbatched seal → open → ACK round trip must perform exactly zero heap
//! allocations, and the batched path must allocate nothing per block: only
//! the per-batch work — the batch's MAC vector, created with its first
//! block and handed to the caller in a `ClosedBatch` when it closes, and
//! the trailer exchange — may allocate, at most once per batch.
//!
//! The Dynamic scheme's repartition step is covered too: after its first
//! interval, `EwmaAllocator::end_interval` computes every allocation in
//! buffers it already owns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mgpu_secure::channel::{Endpoint, BLOCK_SIZE};
use mgpu_secure::ewma::EwmaAllocator;
use mgpu_secure::key_exchange::KeyExchange;
use mgpu_types::NodeId;

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

fn pair() -> (Endpoint, Endpoint) {
    let kx = KeyExchange::boot([42; 16]);
    (
        Endpoint::new(NodeId::gpu(1), 4, &kx),
        Endpoint::new(NodeId::gpu(2), 4, &kx),
    )
}

#[test]
fn unbatched_roundtrip_is_allocation_free_after_warmup() {
    let (mut a, mut b) = pair();
    let mut wire = a.seal_block(b.id(), &[0; BLOCK_SIZE]);
    b.open_block(&wire).expect("authentic");
    let mut plaintext = Vec::new();
    let block = [0x5A; BLOCK_SIZE];

    // Warm-up: grows the plaintext buffer, the dense per-peer tables, and
    // the replay guard's outstanding vectors.
    for _ in 0..16 {
        a.seal_block_into(b.id(), &block, &mut wire);
        let ack = b.open_block_into(&wire, &mut plaintext).expect("authentic");
        a.accept_ack(&ack).expect("fresh");
    }

    let before = alloc_count();
    for i in 0..1000u64 {
        a.seal_block_into(b.id(), &block, &mut wire);
        let ack = b.open_block_into(&wire, &mut plaintext).expect("authentic");
        assert_eq!(plaintext[..], block[..], "round {i} decrypted correctly");
        a.accept_ack(&ack).expect("fresh");
    }
    let allocations = alloc_count() - before;
    assert_eq!(
        allocations, 0,
        "steady-state unbatched seal/open/ack must not allocate"
    );
}

#[test]
fn batched_path_allocates_per_batch_not_per_block() {
    let (mut a, mut b) = pair();
    let mut wire = a.seal_block(b.id(), &[0; BLOCK_SIZE]);
    b.open_block(&wire).expect("authentic");
    let mut plaintext = Vec::new();
    let block = [0xC3; BLOCK_SIZE];
    let batch_size = 16u64;

    // One block round trip (plus its batch's trailer exchange when it
    // closes one); returns the allocations attributable to per-batch work.
    let mut round = |wire: &mut _, plaintext: &mut Vec<u8>, steady: bool| {
        let before = alloc_count();
        let trailer = a.seal_batched_block_into(b.id(), &block, wire);
        let ack = b.open_batched_block_into(wire, plaintext).expect("stored");
        assert!(ack.is_none(), "trailer not yet seen");
        assert_eq!(plaintext[..], block[..]);
        let block_allocs = alloc_count() - before;
        let (_, index) = wire.batch.expect("batched block");
        let mut batch_allocs = 0;
        if index == 0 || trailer.is_some() {
            // The batch's first block creates its MAC vector; its last
            // one closes it.
            batch_allocs += block_allocs;
        } else if steady {
            assert_eq!(block_allocs, 0, "mid-batch block {index} allocated");
        }
        if let Some(t) = trailer {
            let before = alloc_count();
            let ack = b.accept_trailer(&t).expect("verifies").expect("complete");
            a.accept_ack(&ack).expect("fresh");
            batch_allocs += alloc_count() - before;
        }
        batch_allocs
    };

    // Warm-up: several full batches so the MsgMAC-storage spare pool and
    // every scratch buffer reach steady state.
    for _ in 0..4 * batch_size {
        round(&mut wire, &mut plaintext, false);
    }

    let batches = 64u64;
    let allocations: u64 = (0..batches * batch_size)
        .map(|_| round(&mut wire, &mut plaintext, true))
        .sum();
    assert!(
        allocations <= batches,
        "batched path allocated {allocations} times over {batches} batches \
         ({} blocks) — expected at most 1 per batch",
        batches * batch_size
    );
}

#[test]
fn gcm_in_place_core_never_allocates() {
    let gcm = mgpu_crypto::AesGcm::new(&[7; 16]);
    let nonce = [3; 12];
    let mut buf = [0x11; BLOCK_SIZE];
    let before = alloc_count();
    for _ in 0..1000 {
        let tag = gcm.seal_in_place_detached(&nonce, &nonce, &mut buf);
        let lazy = gcm.decrypt_in_place_and_tag(&nonce, &nonce, &mut buf);
        assert_eq!(lazy, tag);
        gcm.seal_in_place_detached(&nonce, &nonce, &mut buf);
        gcm.open_in_place_detached(&nonce, &nonce, &mut buf, &tag[..8])
            .expect("authentic");
    }
    assert_eq!(alloc_count() - before, 0, "in-place AES-GCM allocated");
    assert_eq!(buf, [0x11; BLOCK_SIZE]);
}

#[test]
fn ewma_repartition_is_allocation_free_after_first_interval() {
    let peers: Vec<NodeId> = NodeId::gpu(1).peers(16).collect();
    let mut mon = EwmaAllocator::new(&peers, 0.9, 0.5).with_floor(2);
    mon.end_interval(128);
    let before = alloc_count();
    for round in 0..200usize {
        for (i, &peer) in peers.iter().enumerate() {
            for _ in 0..(round * (i + 1)) % 11 {
                mon.observe_send(peer);
            }
            for _ in 0..(round + i) % 5 {
                mon.observe_recv(peer);
            }
        }
        let alloc = mon.end_interval(128);
        assert_eq!(alloc.total(), 128, "round {round}");
    }
    assert_eq!(alloc_count() - before, 0, "EWMA repartition allocated");
}
