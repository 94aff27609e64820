//! The routed data fabric: moves encrypted blocks hop by hop.
//!
//! [`Fabric`] owns the [`Topology`] and turns a block transmission into a
//! sequence of per-hop transit steps the event loop can schedule:
//! [`Fabric::begin`] books the source's egress port and hands back a
//! [`Transit`] token; each time the token's in-flight bytes reach a
//! waypoint, [`Fabric::advance`] either forwards them (books the
//! waypoint's ingress and egress ports — intermediate GPUs and switches
//! only ever see ciphertext; encryption, MACs and replay protection stay
//! end-to-end between the communicating NICs) or delivers them at the
//! destination's ingress port.
//!
//! On the paper's fully-connected fabric every route is one hop, so the
//! sequence degenerates to exactly the pre-fabric model: one egress
//! booking, one ingress booking, bit-identical timing.

use mgpu_sim::link::{TrafficClass, TrafficTotals, WireParts};
use mgpu_sim::timeq::Busy;
use mgpu_sim::topology::Topology;
use mgpu_types::{ByteSize, Cycle, NodeId, PairId, SystemConfig};

/// A block (or batch of parts travelling together) in flight across the
/// fabric. `hop` is the waypoint whose ingress port the bytes reach next
/// (1 = first waypoint after the source). `Copy`: the token rides inside
/// scheduled events, so it must not drag a heap allocation along.
#[derive(Debug, Clone, Copy)]
pub struct Transit {
    pair: PairId,
    hop: usize,
    parts: WireParts,
    bytes: ByteSize,
    /// Set when this waypoint's ingress was already booked but the
    /// onward egress rejected for credits: the retry must not occupy
    /// the ingress port (and account its bytes) a second time.
    cleared_ingress: Option<Cycle>,
}

impl Transit {
    /// The endpoints this transit travels between.
    #[must_use]
    pub fn pair(&self) -> PairId {
        self.pair
    }

    /// Total bytes on the wire.
    #[must_use]
    pub fn bytes(&self) -> ByteSize {
        self.bytes
    }
}

/// What happened when in-flight bytes reached their next waypoint.
#[derive(Debug)]
pub enum HopOutcome {
    /// An intermediate waypoint forwarded the bytes; they reach the next
    /// waypoint's ingress at `at`.
    Forwarded {
        /// Arrival time at the next waypoint.
        at: Cycle,
        /// The transit token, advanced one hop.
        transit: Transit,
    },
    /// The waypoint's onward egress is out of data-VC credits: the
    /// typed backpressure reject. The bytes sit in the waypoint's
    /// ingress buffer (already booked); re-advance the returned token
    /// at `retry_at`, when the credit that blocked this hop frees.
    Blocked {
        /// Earliest cycle the needed egress credit frees.
        retry_at: Cycle,
        /// The transit token, unchanged except it remembers its
        /// ingress booking — the retry goes straight to egress.
        transit: Transit,
    },
    /// The destination's ingress port finished clocking the bytes in at
    /// `at`; receive-side processing can start.
    Delivered {
        /// Time the last byte cleared the destination ingress.
        at: Cycle,
    },
}

/// The routed interconnect fabric of one simulation run.
#[derive(Debug)]
pub struct Fabric {
    topo: Topology,
}

impl Fabric {
    /// Builds the fabric for `config`'s topology.
    #[must_use]
    pub fn new(config: &SystemConfig) -> Self {
        Fabric {
            topo: Topology::new(config),
        }
    }

    /// Starts a block transmission: books `pair.src`'s egress port with
    /// `parts` (accounting the bytes to it) and returns the arrival time
    /// at the first waypoint plus the [`Transit`] token to advance there.
    pub fn begin(&mut self, pair: PairId, now: Cycle, parts: WireParts) -> (Cycle, Transit) {
        let bytes = parts.total();
        let at = self.topo.depart(pair, 0, now, &parts);
        (
            at,
            Transit {
                pair,
                hop: 1,
                parts,
                bytes,
                cleared_ingress: None,
            },
        )
    }

    /// Non-mutating admission probe for [`Fabric::begin`]: is `pair`'s
    /// source egress granting data-VC credits at `now`? `Err` carries the
    /// exact retry cycle. Callers order irreversible side effects (ACK
    /// window reservations) *after* this check so a credit reject leaves
    /// nothing to unwind.
    pub fn egress_ready(&self, pair: PairId, now: Cycle) -> Result<(), Busy> {
        self.topo.egress_ready(pair, 0, now)
    }

    /// Advances in-flight bytes through the waypoint they just reached:
    /// books its ingress port, and — unless it is the destination — its
    /// egress port toward the next waypoint.
    pub fn advance(&mut self, transit: Transit, now: Cycle) -> HopOutcome {
        // A retry after a credit reject already holds its ingress
        // booking: clocking the bytes in again would double-book the
        // port and double-count the bytes.
        let through = match transit.cleared_ingress {
            Some(t) => t.max(now),
            None => self
                .topo
                .arrive(transit.pair, transit.hop, now, transit.bytes),
        };
        if transit.hop == self.topo.hops(transit.pair) {
            HopOutcome::Delivered { at: through }
        } else {
            match self
                .topo
                .try_depart(transit.pair, transit.hop, through, &transit.parts)
            {
                Ok(at) => HopOutcome::Forwarded {
                    at,
                    transit: Transit {
                        hop: transit.hop + 1,
                        cleared_ingress: None,
                        ..transit
                    },
                },
                Err(busy) => HopOutcome::Blocked {
                    retry_at: busy.retry_at,
                    transit: Transit {
                        cleared_ingress: Some(through),
                        ..transit
                    },
                },
            }
        }
    }

    /// Transmits a small message on `pair`'s control VC (requests, batch
    /// trailers, ACKs); latency and byte accounting scale with the
    /// route's hop count.
    pub fn transmit_ctrl(
        &mut self,
        pair: PairId,
        now: Cycle,
        parts: &[(ByteSize, TrafficClass)],
    ) -> Cycle {
        self.topo.transmit_ctrl(pair, now, parts)
    }

    /// Records `n` adversary-tampered crossings against `src`'s egress.
    pub fn note_tampered_egress(&mut self, src: NodeId, n: u64) {
        self.topo.note_tampered_egress(src, n);
    }

    /// Per-hop traffic totals across all fabric ports and VCs.
    #[must_use]
    pub fn traffic_totals(&self) -> TrafficTotals {
        self.topo.traffic_totals()
    }

    /// Total adversary-tampered crossings.
    #[must_use]
    pub fn tampered_total(&self) -> u64 {
        self.topo.tampered_total()
    }

    /// The underlying topology (read-only, for reporting).
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_types::TopologyKind;

    fn fabric(kind: TopologyKind, gpus: u16) -> Fabric {
        let mut cfg = SystemConfig::paper_4gpu();
        cfg.gpu_count = gpus;
        cfg.topology = kind;
        Fabric::new(&cfg)
    }

    #[test]
    fn single_hop_delivers_immediately() {
        let mut f = fabric(TopologyKind::FullyConnected, 4);
        let pair = PairId::new(NodeId::gpu(1), NodeId::gpu(2));
        let (at, transit) = f.begin(
            pair,
            Cycle::ZERO,
            WireParts::of(ByteSize::CACHELINE, TrafficClass::Data),
        );
        assert_eq!(at, Cycle::new(2 + 100)); // 64 B at 50 B/cy + latency
        match f.advance(transit, at) {
            HopOutcome::Delivered { at } => assert_eq!(at, Cycle::new(2 + 100 + 2)),
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn ring_transit_forwards_then_delivers() {
        let mut f = fabric(TopologyKind::Ring, 8);
        let pair = PairId::new(NodeId::gpu(1), NodeId::gpu(3));
        let (at, transit) = f.begin(
            pair,
            Cycle::ZERO,
            WireParts::of(ByteSize::CACHELINE, TrafficClass::Data),
        );
        let HopOutcome::Forwarded { at, transit } = f.advance(transit, at) else {
            panic!("two-hop route must forward at GPU2");
        };
        let HopOutcome::Delivered { at } = f.advance(transit, at) else {
            panic!("second hop is the destination");
        };
        // Two store-and-forward legs of (2 ser + 100 lat + 2 ingress).
        assert_eq!(at, Cycle::new(2 * 104));
        // Bytes charged once per hop.
        assert_eq!(f.traffic_totals().get(TrafficClass::Data).as_u64(), 128);
    }

    #[test]
    fn transit_exposes_pair_and_bytes() {
        let mut f = fabric(TopologyKind::FullyConnected, 4);
        let pair = PairId::new(NodeId::gpu(2), NodeId::gpu(4));
        let mut parts = WireParts::of(ByteSize::new(64), TrafficClass::Data);
        parts.push(ByteSize::new(8), TrafficClass::Mac);
        let (_, transit) = f.begin(pair, Cycle::ZERO, parts);
        assert_eq!(transit.pair(), pair);
        assert_eq!(transit.bytes(), ByteSize::new(72));
    }
}
