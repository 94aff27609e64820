//! Layer replays for the traced run. Each one drives a single layer's
//! public functions over a cell's own request stream, inside spans, and
//! returns the operation counts that the caller calibrates against the
//! engine's own counts for the same cell.

use crate::cells::Cell;
use crate::spans::Spans;
use mgpu_crypto::AesEngine;
use mgpu_secure::batching::SenderBatcher;
use mgpu_secure::channel::{Endpoint, WireBlock, BLOCK_SIZE};
use mgpu_secure::key_exchange::KeyExchange;
use mgpu_secure::schemes::{build_scheme, OtpScheme};
use mgpu_secure::WireFormat;
use mgpu_sim::events::EventQueue;
use mgpu_sim::link::TrafficClass;
use mgpu_sim::Topology;
use mgpu_types::{Cycle, Direction, NodeId, PairId};
use mgpu_workloads::Request;
use std::hint::black_box;

/// Blocks sealed (then opened) per crypto span pair.
const CRYPTO_CHUNK: usize = 64;

/// A cell's requests in global arrival order, each expanded to its
/// blocks as `(time, owner, requester)`: the owner sends, the requester
/// receives.
pub fn block_stream(requests: &[Request]) -> Vec<(Cycle, NodeId, NodeId)> {
    let mut order: Vec<&Request> = requests.iter().collect();
    order.sort_by_key(|r| (r.available_at, r.requester));
    order
        .into_iter()
        .flat_map(|r| (0..r.kind.blocks()).map(move |_| (r.available_at, r.target, r.requester)))
        .collect()
}

fn slot(node: NodeId) -> usize {
    usize::from(node.raw())
}

/// Pads the replayed schemes classified, per direction.
pub struct SchemeCounts {
    pub blocks: u64,
    pub send: u64,
    pub recv: u64,
}

/// `build_scheme` for every node, then `advance` + `on_send` at the owner
/// and `advance` + `on_recv` at the requester for every block.
pub fn scheme(
    cell: &Cell,
    blocks: &[(Cycle, NodeId, NodeId)],
    spans: &mut Spans,
    parent: usize,
) -> SchemeCounts {
    let cfg = &cell.config;
    let span = spans.open("secure", "scheme_replay", Some(parent));
    let mut nics: Vec<(AesEngine, Box<dyn OtpScheme>)> = NodeId::all(cfg.gpu_count)
        .map(|n| {
            let mut engine = AesEngine::new(cfg.security.aes_latency);
            let scheme = build_scheme(n, cfg, &mut engine);
            (engine, scheme)
        })
        .collect();
    for &(now, owner, requester) in blocks {
        let (engine, scheme) = &mut nics[slot(owner)];
        scheme.advance(now, engine);
        let sent = scheme.on_send(now, requester, engine);
        let (engine, scheme) = &mut nics[slot(requester)];
        scheme.advance(now, engine);
        black_box(scheme.on_recv(now, owner, sent.counter, engine));
    }
    spans.close(span);
    let count = |dir| nics.iter().map(|(_, s)| s.stats().total(dir)).sum();
    SchemeCounts {
        blocks: blocks.len() as u64,
        send: count(Direction::Send),
        recv: count(Direction::Recv),
    }
}

/// One `SenderBatcher` per node, configured as the cell's NICs are:
/// timeout flushes when due, then `add_block` for every block the node
/// sends; `flush_all` at the end. Returns the blocks added.
pub fn batcher(
    cell: &Cell,
    blocks: &[(Cycle, NodeId, NodeId)],
    spans: &mut Spans,
    parent: usize,
) -> u64 {
    let b = &cell.config.security.batching;
    let span = spans.open("secure", "batcher_replay", Some(parent));
    let mut batchers: Vec<SenderBatcher> = NodeId::all(cell.config.gpu_count)
        .map(|_| {
            let batcher = SenderBatcher::new(b.batch_size, b.flush_timeout);
            if b.deadline_close {
                batcher.with_deadline_close(b.deadline_slack)
            } else {
                batcher
            }
        })
        .collect();
    let mut added = 0;
    for &(now, owner, requester) in blocks {
        let batcher = &mut batchers[slot(owner)];
        if batcher.next_deadline().is_some_and(|d| d <= now) {
            black_box(batcher.flush_due(now));
        }
        black_box(batcher.add_block(now, requester, [0; 8]));
        added += 1;
    }
    for batcher in &mut batchers {
        black_box(batcher.flush_all());
    }
    spans.close(span);
    added
}

/// Seal and open counts of a crypto replay.
pub struct CryptoCounts {
    pub sealed: u64,
    pub opened: u64,
    pub seal_ns: u64,
    pub open_ns: u64,
}

/// Real AES-GCM through functional `Endpoint`s: every block is sealed at
/// its owner, opened at its requester, and its ACK accepted back at the
/// owner. Sealing and opening are timed in separate spans, in chunks so
/// the replay-protection window stays small.
pub fn crypto(
    cell: &Cell,
    blocks: &[(Cycle, NodeId, NodeId)],
    seed: u64,
    spans: &mut Spans,
    parent: usize,
) -> Result<CryptoCounts, String> {
    let gpus = cell.config.gpu_count;
    let mut secret = [0u8; 16];
    secret[..8].copy_from_slice(&seed.to_le_bytes());
    let kx = KeyExchange::boot(secret);
    let mut endpoints: Vec<Endpoint> = NodeId::all(gpus)
        .map(|n| Endpoint::new(n, gpus, &kx))
        .collect();
    let mut wires: Vec<WireBlock> = Vec::with_capacity(CRYPTO_CHUNK);
    let mut plaintext = Vec::with_capacity(BLOCK_SIZE);
    let mut counts = CryptoCounts {
        sealed: 0,
        opened: 0,
        seal_ns: 0,
        open_ns: 0,
    };
    for (chunk_no, chunk) in blocks.chunks(CRYPTO_CHUNK).enumerate() {
        let span = spans.open("crypto", "seal", Some(parent));
        wires.clear();
        for (i, &(_, owner, requester)) in chunk.iter().enumerate() {
            let payload = [(chunk_no * CRYPTO_CHUNK + i) as u8; BLOCK_SIZE];
            wires.push(endpoints[slot(owner)].seal_block(requester, &payload));
        }
        counts.seal_ns += spans.close(span);
        counts.sealed += chunk.len() as u64;

        let span = spans.open("crypto", "open", Some(parent));
        for wire in &wires {
            let ack = endpoints[slot(wire.receiver)]
                .open_block_into(wire, &mut plaintext)
                .map_err(|e| format!("{}: genuine block rejected: {e}", cell.label))?;
            endpoints[slot(wire.sender)]
                .accept_ack(&ack)
                .map_err(|e| format!("{}: genuine ACK rejected: {e}", cell.label))?;
        }
        counts.open_ns += spans.close(span);
        counts.opened += wires.len() as u64;
    }
    Ok(counts)
}

/// `EventQueue` schedule/pop churn: a population of one event per issue
/// slot in the system, each pop rescheduling at up to two link latencies
/// ahead, until exactly `ops` events have been popped.
pub fn queue(cell: &Cell, ops: u64, seed: u64, spans: &mut Spans, parent: usize) -> u64 {
    let cfg = &cell.config;
    let population = (u64::from(cfg.gpu_count) * u64::from(cfg.max_outstanding)).min(ops);
    let spread = 2 * cfg.link_latency.as_u64().max(1);
    let mut rng = seed | 1;
    let mut next = move || {
        // xorshift64: cheap, seeded, and identical on every host.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % spread
    };
    let span = spans.open("sim", "queue_replay", Some(parent));
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..population {
        queue.schedule(Cycle::new(next()), i);
    }
    let mut scheduled = population;
    let mut popped = 0;
    while let Some((now, ev)) = queue.pop() {
        black_box(ev);
        popped += 1;
        if scheduled < ops {
            queue.schedule(Cycle::new(now.as_u64() + 1 + next()), scheduled);
            scheduled += 1;
        }
    }
    spans.close(span);
    popped
}

/// Store-and-forward transmission of every data block over the cell's
/// fabric: one `depart` (and the matching `arrive`) per hop of the
/// owner → requester route. Returns the hop transmits made.
pub fn fabric(
    cell: &Cell,
    blocks: &[(Cycle, NodeId, NodeId)],
    spans: &mut Spans,
    parent: usize,
) -> u64 {
    let wire = WireFormat::default();
    let bytes = wire.header + wire.block;
    let parts = [(bytes, TrafficClass::Data)];
    let span = spans.open("sim", "fabric_replay", Some(parent));
    let mut topo = Topology::new(&cell.config);
    let mut transmits = 0;
    for &(now, owner, requester) in blocks {
        let pair = PairId::new(owner, requester);
        let hops = topo.hops(pair);
        let mut t = now;
        for hop in 0..hops {
            t = topo.depart(pair, hop, t, &parts);
            t = topo.arrive(pair, hop + 1, t, bytes);
            transmits += 1;
        }
        black_box(t);
    }
    spans.close(span);
    transmits
}

/// Route length of every block, and the block crossings the engine's own
/// data-byte counter implies for the same cell: data bytes are one
/// block frame per hop per block plus one request packet per hop per
/// request.
pub fn route_hops(cell: &Cell, requests: &[Request], data_bytes: u64) -> (u64, Option<u64>) {
    let routes = mgpu_sim::RoutingTable::new(cell.config.topology, cell.config.gpu_count);
    let wire = WireFormat::default();
    let mut block_hops = 0u64;
    let mut request_hops = 0u64;
    for r in requests {
        let hops = routes.hops(PairId::new(r.target, r.requester)) as u64;
        block_hops += hops * u64::from(r.kind.blocks());
        request_hops += routes.hops(PairId::new(r.requester, r.target)) as u64;
    }
    let frame = (wire.header + wire.block).as_u64();
    let implied = data_bytes
        .checked_sub(request_hops * wire.request.as_u64())
        .filter(|b| b % frame == 0)
        .map(|b| b / frame);
    (block_hops, implied)
}
