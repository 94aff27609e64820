//! System topology: CPU hub plus a routed GPU interconnect fabric.
//!
//! The paper's target architecture (Fig. 2, Table III) connects every GPU
//! to the CPU over PCIe v4 (32 GB/s) and GPUs to each other over an
//! NVLink2-class fabric (50 GB/s). At the 1 GHz shader clock those are
//! 32 B/cycle and 50 B/cycle.
//!
//! Bandwidth is a *per-port* resource, as in real NVLink/PCIe systems: all
//! data a node sends shares its **egress port**, and all data it receives
//! shares its **ingress port** (CPU ports run at PCIe speed, GPU ports at
//! NVLink speed; a transfer is limited by the slower of the two ports it
//! crosses). Small request packets and trailing MACs travel on per-pair
//! **control virtual channels**, separate from bulk data — mirroring the
//! request/response VC split real interconnects use for protocol deadlock
//! freedom, and keeping tiny control messages from head-of-line blocking
//! behind bulk data in the FIFO occupancy model.
//!
//! The fabric shape is configurable ([`TopologyKind`]): fully connected
//! (the paper's evaluated system, every GPU pair one direct hop), a ring
//! (messages forward through intermediate GPUs), or a switch hierarchy
//! (messages cross leaf/root switch ports). Multi-hop shapes charge every
//! byte — payload *and* security metadata — once per hop crossed, so the
//! per-hop amplification of the metadata overhead is directly measurable
//! in [`Topology::traffic_totals`]. Routes come from a static
//! [`RoutingTable`]; intermediate hops only forward ciphertext, so the
//! fabric never needs keys (encryption, MACs and replay protection stay
//! end-to-end between the communicating pair).

use crate::link::{TrafficClass, TrafficTotals};
use crate::routing::{RoutingTable, Waypoint};
use crate::timeq::{Busy, TimedServer, Vc};
use mgpu_types::{
    ByteSize, Cycle, DenseNodeMap, Duration, NodeId, PairId, PairTable, SystemConfig,
};

/// The full interconnect: per-waypoint data ports plus per-pair control
/// VCs, routed over the configured fabric shape.
///
/// # Examples
///
/// ```
/// use mgpu_sim::topology::Topology;
/// use mgpu_sim::link::TrafficClass;
/// use mgpu_types::{ByteSize, Cycle, NodeId, PairId, SystemConfig};
///
/// let mut topo = Topology::new(&SystemConfig::paper_4gpu());
/// let pair = PairId::new(NodeId::gpu(1), NodeId::gpu(2));
/// let arrival = topo.transmit(
///     pair, Cycle::ZERO, &[(ByteSize::CACHELINE, TrafficClass::Data)]);
/// assert!(arrival > Cycle::ZERO);
/// ```
#[derive(Debug)]
pub struct Topology {
    /// Outgoing data port per node (accounts traffic totals; every hop's
    /// bytes are charged to the port they leave through). Dense-indexed by
    /// node id — port lookups sit on the per-hop transmit path. Egress is
    /// where data-VC credits apply: all fabric backpressure is exerted at
    /// the port a message leaves through.
    node_egress: DenseNodeMap<TimedServer>,
    /// Incoming data port per node (occupancy only; zero latency so each
    /// hop's propagation delay is charged once, at its egress). Always
    /// unbounded: backpressure lives at egress, never at ingress.
    node_ingress: DenseNodeMap<TimedServer>,
    /// Outgoing data port per switch, indexed by switch number.
    switch_egress: Vec<TimedServer>,
    /// Incoming data port per switch, indexed by switch number.
    switch_ingress: Vec<TimedServer>,
    /// Small-message control VC per directed pair. Multi-hop pairs get a
    /// hop-scaled propagation latency and hop-scaled byte accounting.
    /// Finite ctrl-VC credits stall the *sender* (service start shifts to
    /// the credit-free cycle) so control sends stay infallible.
    ctrl: PairTable<TimedServer>,
    routes: RoutingTable,
    gpu_count: u16,
}

impl Topology {
    /// Builds the topology for `config`.
    #[must_use]
    pub fn new(config: &SystemConfig) -> Self {
        let routes = RoutingTable::new(config.topology, config.gpu_count);
        let data_credits = config.flow.data_vc_credits;
        let ctrl_credits = config.flow.ctrl_vc_credits;
        let mut node_egress = DenseNodeMap::with_gpu_count(config.gpu_count);
        let mut node_ingress = DenseNodeMap::with_gpu_count(config.gpu_count);
        let mut ctrl = PairTable::new();
        for node in NodeId::all(config.gpu_count) {
            let port_bw = if node.is_cpu() {
                config.pcie_bytes_per_cycle
            } else {
                config.gpu_link_bytes_per_cycle
            };
            node_egress.insert(
                node,
                TimedServer::new(port_bw, config.link_latency, data_credits, None),
            );
            node_ingress.insert(node, TimedServer::unbounded(port_bw, Duration::ZERO));
            for dst in node.peers(config.gpu_count) {
                let pair = PairId::new(node, dst);
                let bw = if pair.involves_cpu() {
                    config.pcie_bytes_per_cycle
                } else {
                    config.gpu_link_bytes_per_cycle
                };
                let hops = routes.hops(pair) as u64;
                let latency = Duration::cycles(config.link_latency.as_u64() * hops);
                ctrl.insert(pair, TimedServer::new(bw, latency, None, ctrl_credits));
            }
        }
        // Switch ports run at fabric (NVLink) speed.
        let switch_egress = (0..routes.switch_count())
            .map(|_| {
                TimedServer::new(
                    config.gpu_link_bytes_per_cycle,
                    config.link_latency,
                    data_credits,
                    None,
                )
            })
            .collect();
        let switch_ingress = (0..routes.switch_count())
            .map(|_| TimedServer::unbounded(config.gpu_link_bytes_per_cycle, Duration::ZERO))
            .collect();
        Topology {
            node_egress,
            node_ingress,
            switch_egress,
            switch_ingress,
            ctrl,
            routes,
            gpu_count: config.gpu_count,
        }
    }

    /// The egress port of waypoint `w` (hot path: O(1) dense index).
    fn egress_mut(&mut self, w: Waypoint) -> &mut TimedServer {
        match w {
            Waypoint::Node(n) => self.node_egress.get_mut(n).expect("waypoint within fabric"),
            Waypoint::Switch(s) => self
                .switch_egress
                .get_mut(usize::from(s))
                .expect("waypoint within fabric"),
        }
    }

    /// The ingress port of waypoint `w` (hot path: O(1) dense index).
    fn ingress_mut(&mut self, w: Waypoint) -> &mut TimedServer {
        match w {
            Waypoint::Node(n) => self
                .node_ingress
                .get_mut(n)
                .expect("waypoint within fabric"),
            Waypoint::Switch(s) => self
                .switch_ingress
                .get_mut(usize::from(s))
                .expect("waypoint within fabric"),
        }
    }

    /// The static routing table of this fabric.
    #[must_use]
    pub fn routes(&self) -> &RoutingTable {
        &self.routes
    }

    /// Links a message from `pair.src` to `pair.dst` crosses.
    ///
    /// # Panics
    ///
    /// Panics if `pair` references a node outside the system.
    #[must_use]
    pub fn hops(&self, pair: PairId) -> usize {
        self.routes.hops(pair)
    }

    /// The egress data port of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the system.
    #[must_use]
    pub fn egress(&self, node: NodeId) -> &TimedServer {
        self.node_egress.get(node).expect("node within system")
    }

    /// The ingress data port of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the system.
    #[must_use]
    pub fn ingress(&self, node: NodeId) -> &TimedServer {
        self.node_ingress.get(node).expect("node within system")
    }

    /// The egress port of switch `s` (switch fabrics only).
    ///
    /// # Panics
    ///
    /// Panics if the fabric has no switch `s`.
    #[must_use]
    pub fn switch_egress(&self, s: u16) -> &TimedServer {
        self.switch_egress
            .get(usize::from(s))
            .expect("switch within fabric")
    }

    /// The control VC for `pair`.
    ///
    /// # Panics
    ///
    /// Panics if `pair` references a node outside the system.
    #[must_use]
    pub fn ctrl(&self, pair: PairId) -> &TimedServer {
        self.ctrl.get(pair).expect("pair within system")
    }

    /// Books a multi-part message onto the egress port of waypoint `hop`
    /// on `pair`'s route (0 = the source node). Bytes are accounted to
    /// that port — per-hop accounting is what makes shared-link metadata
    /// amplification measurable. Returns when the last byte reaches the
    /// next waypoint.
    ///
    /// # Panics
    ///
    /// Panics if `pair` is outside the system or `hop` is past the last
    /// link of the route.
    pub fn depart(
        &mut self,
        pair: PairId,
        hop: usize,
        now: Cycle,
        parts: &[(ByteSize, TrafficClass)],
    ) -> Cycle {
        assert!(hop < self.routes.hops(pair), "hop within route");
        let w = self.routes.route(pair)[hop];
        self.egress_mut(w)
            .serve_parts_blocking(Vc::Data, now, parts)
            .done
    }

    /// Credit-checked variant of [`Topology::depart`]: requests a data-VC
    /// ticket on the hop's egress server. `Err` is the typed credit
    /// reject carrying the exact retry cycle — event-driven callers
    /// reschedule then instead of re-polling.
    ///
    /// # Panics
    ///
    /// Panics if `pair` is outside the system or `hop` is past the last
    /// link of the route.
    pub fn try_depart(
        &mut self,
        pair: PairId,
        hop: usize,
        now: Cycle,
        parts: &[(ByteSize, TrafficClass)],
    ) -> Result<Cycle, Busy> {
        assert!(hop < self.routes.hops(pair), "hop within route");
        let w = self.routes.route(pair)[hop];
        self.egress_mut(w)
            .serve_parts(Vc::Data, now, parts)
            .map(|t| t.done)
    }

    /// Non-mutating data-VC admission probe on the egress server of
    /// waypoint `hop` of `pair`'s route: would [`Topology::try_depart`]
    /// at `now` be granted? Lets callers order side effects (e.g. ACK
    /// window reservations) after the egress admission decision without
    /// consuming the credit.
    pub fn egress_ready(&self, pair: PairId, hop: usize, now: Cycle) -> Result<(), Busy> {
        assert!(hop < self.routes.hops(pair), "hop within route");
        match self.routes.route(pair)[hop] {
            Waypoint::Node(n) => self.node_egress.get(n).expect("waypoint within fabric"),
            Waypoint::Switch(sw) => self
                .switch_egress
                .get(usize::from(sw))
                .expect("waypoint within fabric"),
        }
        .check(Vc::Data, now)
    }

    /// Occupies the ingress port of waypoint `hop` on `pair`'s route
    /// (1 = first waypoint after the source; `hops` = the destination).
    /// No byte accounting: the bytes were counted at the egress port they
    /// left. Returns when the last byte is through.
    ///
    /// # Panics
    ///
    /// Panics if `pair` is outside the system or `hop` is 0 or past the
    /// destination.
    pub fn arrive(&mut self, pair: PairId, hop: usize, now: Cycle, bytes: ByteSize) -> Cycle {
        assert!(
            hop >= 1 && hop <= self.routes.hops(pair),
            "hop within route"
        );
        let w = self.routes.route(pair)[hop];
        self.ingress_mut(w)
            .occupy(Vc::Data, now, bytes)
            .expect("ingress ports are unbounded")
            .done
    }

    /// Transmits a multi-part data message end to end: serializes through
    /// every hop of the route (store-and-forward), occupying each
    /// waypoint's ingress and egress ports in turn. Returns when the last
    /// byte is received at the destination.
    pub fn transmit(
        &mut self,
        pair: PairId,
        now: Cycle,
        parts: &[(ByteSize, TrafficClass)],
    ) -> Cycle {
        let total: ByteSize = parts.iter().map(|(b, _)| *b).sum();
        let hops = self.routes.hops(pair);
        let mut t = self.depart(pair, 0, now, parts);
        for hop in 1..=hops {
            t = self.arrive(pair, hop, t, total);
            if hop < hops {
                t = self.depart(pair, hop, t, parts);
            }
        }
        t
    }

    /// Books only the first egress leg of a data transmission from `src`;
    /// returns when the last byte arrives at the next waypoint. Use
    /// together with [`Topology::ingress_occupy`] when the ingress booking
    /// should happen at arrival time (event-driven callers). Multi-hop
    /// callers should prefer [`Topology::depart`]/[`Topology::arrive`].
    pub fn transmit_egress(
        &mut self,
        src: NodeId,
        now: Cycle,
        parts: &[(ByteSize, TrafficClass)],
    ) -> Cycle {
        self.node_egress
            .get_mut(src)
            .expect("src within system")
            .serve_parts_blocking(Vc::Data, now, parts)
            .done
    }

    /// Books `bytes` on `dst`'s ingress port at `now`; returns when the
    /// last byte is through.
    pub fn ingress_occupy(&mut self, dst: NodeId, now: Cycle, bytes: ByteSize) -> Cycle {
        self.node_ingress
            .get_mut(dst)
            .expect("dst within system")
            .occupy(Vc::Data, now, bytes)
            .expect("ingress ports are unbounded")
            .done
    }

    /// Transmits a message over the pair's control VC (requests, trailing
    /// MACs). The VC's propagation latency covers the whole route; on
    /// multi-hop pairs the bytes are additionally charged once per extra
    /// hop so control metadata shows the same per-hop amplification as
    /// data.
    pub fn transmit_ctrl(
        &mut self,
        pair: PairId,
        now: Cycle,
        parts: &[(ByteSize, TrafficClass)],
    ) -> Cycle {
        let hops = self.routes.hops(pair) as u64;
        let vc = self.ctrl.get_mut(pair).expect("pair within system");
        let arrival = vc.serve_parts_blocking(Vc::Ctrl, now, parts).done;
        for &(bytes, class) in parts {
            if hops > 1 {
                vc.charge_background(bytes * (hops - 1), class);
            }
        }
        arrival
    }

    /// Charges background (non-queueing) traffic on a pair's control VC,
    /// once per hop of the pair's route.
    pub fn charge_background(&mut self, pair: PairId, bytes: ByteSize, class: TrafficClass) {
        let hops = self.routes.hops(pair) as u64;
        self.ctrl
            .get_mut(pair)
            .expect("pair within system")
            .charge_background(bytes * hops, class);
    }

    /// Number of GPUs in the system.
    #[must_use]
    pub fn gpu_count(&self) -> u16 {
        self.gpu_count
    }

    /// Number of directed control VCs.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.ctrl.len()
    }

    /// Aggregated traffic totals across the system, counted **per hop**:
    /// data bytes are accounted at every egress port they cross (node and
    /// switch); control/ACK bytes at their VC, scaled by route length.
    #[must_use]
    pub fn traffic_totals(&self) -> TrafficTotals {
        let mut totals = TrafficTotals::default();
        for link in self
            .node_egress
            .values()
            .chain(self.switch_egress.iter())
            .chain(self.ctrl.values())
        {
            totals.merge(link.totals());
        }
        totals
    }

    /// Records `n` adversary-tampered crossings against `src`'s egress
    /// port. All of a node's injected faults are charged to its egress
    /// link regardless of which message leg (block, trailer or returning
    /// ACK) was hit — a deliberate simplification that keeps per-node
    /// attribution without per-leg bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if `src` is outside the system.
    pub fn note_tampered_egress(&mut self, src: NodeId, n: u64) {
        self.node_egress
            .get_mut(src)
            .expect("src within system")
            .note_tampered(n);
    }

    /// Total adversary-tampered crossings across all egress ports.
    #[must_use]
    pub fn tampered_total(&self) -> u64 {
        self.node_egress
            .values()
            .chain(self.switch_egress.iter())
            .map(TimedServer::tampered_messages)
            .sum()
    }

    /// Settles every port at drain time `now`: reclaims all credits whose
    /// grants completed by `now` on both VCs of every server, so the
    /// conservation invariant `credits_issued == credits_returned` can be
    /// checked once the fabric is idle. Reclaim is otherwise lazy — it
    /// happens on the next serve attempt — so an idle port may hold
    /// settled-but-unreturned credits indefinitely without this call.
    pub fn settle(&mut self, now: Cycle) {
        for server in self
            .node_egress
            .values_mut()
            .chain(self.node_ingress.values_mut())
            .chain(self.switch_egress.iter_mut())
            .chain(self.switch_ingress.iter_mut())
            .chain(self.ctrl.values_mut())
        {
            server.settle(now);
        }
    }

    /// Iterates over `(node, egress port)` entries in ascending node
    /// order — the per-node data-traffic breakdown (switch ports excluded;
    /// see [`Topology::iter_switch_egress`]).
    pub fn iter_egress(&self) -> impl Iterator<Item = (NodeId, &TimedServer)> {
        self.node_egress.iter()
    }

    /// Iterates over `(switch, egress port)` entries in switch order —
    /// the per-switch forwarding-traffic breakdown (empty outside
    /// [`TopologyKind::Switch`]).
    pub fn iter_switch_egress(&self) -> impl Iterator<Item = (u16, &TimedServer)> {
        self.switch_egress
            .iter()
            .enumerate()
            .map(|(s, srv)| (s as u16, srv))
    }

    /// Control-VC bytes granted so far on pairs leaving `src`, summed
    /// over every peer. All of a node's control messages share its
    /// physical port even though they ride per-pair VCs, so this sum is
    /// the byte counter a tap co-located on that port would read
    /// (chaff included — shaping padding is indistinguishable on the
    /// wire).
    #[must_use]
    pub fn ctrl_bytes_from(&self, src: NodeId) -> u64 {
        self.ctrl
            .iter()
            .filter(|(pair, _)| pair.src == src)
            .map(|(_, vc)| vc.vc_bytes(Vc::Ctrl))
            .sum()
    }

    /// Control-VC grants issued so far on pairs leaving `src` — the
    /// count of serviced control messages visible at the node's port.
    #[must_use]
    pub fn ctrl_grants_from(&self, src: NodeId) -> u64 {
        self.ctrl
            .iter()
            .filter(|(pair, _)| pair.src == src)
            .map(|(_, vc)| vc.grants(Vc::Ctrl))
            .sum()
    }
}

#[cfg(test)]
pub(crate) mod fixtures {
    //! Shared topology fixtures for this crate's unit tests.
    use super::Topology;
    use mgpu_types::{SystemConfig, TopologyKind};

    /// The paper's 4-GPU fully-connected system.
    pub fn paper_topo() -> Topology {
        Topology::new(&SystemConfig::paper_4gpu())
    }

    /// A paper-parameter system with `gpus` GPUs on `kind`.
    pub fn topo_for(kind: TopologyKind, gpus: u16) -> Topology {
        let mut cfg = SystemConfig::paper_4gpu();
        cfg.gpu_count = gpus;
        cfg.topology = kind;
        Topology::new(&cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{paper_topo, topo_for};
    use super::*;
    use mgpu_types::TopologyKind;

    #[test]
    fn four_gpu_port_and_vc_counts() {
        let topo = paper_topo();
        assert_eq!(topo.link_count(), 20); // 5 nodes x 4 peers, directed
        assert_eq!(topo.gpu_count(), 4);
        assert_eq!(topo.iter_egress().count(), 5);
        assert_eq!(topo.iter_switch_egress().count(), 0);
    }

    #[test]
    fn port_speeds_follow_node_kind() {
        let topo = paper_topo();
        assert_eq!(topo.egress(NodeId::CPU).bandwidth(), 32);
        assert_eq!(topo.ingress(NodeId::CPU).bandwidth(), 32);
        assert_eq!(topo.egress(NodeId::gpu(1)).bandwidth(), 50);
        assert_eq!(
            topo.ctrl(PairId::new(NodeId::CPU, NodeId::gpu(1)))
                .bandwidth(),
            32
        );
        assert_eq!(
            topo.ctrl(PairId::new(NodeId::gpu(1), NodeId::gpu(2)))
                .bandwidth(),
            50
        );
    }

    #[test]
    fn gpu_to_cpu_is_pcie_limited_at_ingress() {
        let mut topo = paper_topo();
        let pair = PairId::new(NodeId::gpu(1), NodeId::CPU);
        // 64 B: egress at 50 B/cy (2 cy) + 100 cy latency, then CPU ingress
        // at 32 B/cy (2 cy).
        let arrival = topo.transmit(
            pair,
            Cycle::ZERO,
            &[(ByteSize::CACHELINE, TrafficClass::Data)],
        );
        assert_eq!(arrival, Cycle::new(2 + 100 + 2));
    }

    #[test]
    fn egress_port_is_shared_across_destinations() {
        let mut topo = paper_topo();
        // 500 B to GPU2 occupies GPU1's egress for 10 cycles.
        topo.transmit(
            PairId::new(NodeId::gpu(1), NodeId::gpu(2)),
            Cycle::ZERO,
            &[(ByteSize::new(500), TrafficClass::Data)],
        );
        // A message to a *different* destination queues behind it.
        let b = topo.transmit(
            PairId::new(NodeId::gpu(1), NodeId::gpu(3)),
            Cycle::ZERO,
            &[(ByteSize::new(50), TrafficClass::Data)],
        );
        assert_eq!(b, Cycle::new(10 + 1 + 100 + 1));
    }

    #[test]
    fn ingress_port_is_shared_across_sources() {
        let mut topo = paper_topo();
        // Two 5000 B messages from different sources to GPU1 arriving
        // together: the second serializes behind the first at ingress.
        let a = topo.transmit(
            PairId::new(NodeId::gpu(2), NodeId::gpu(1)),
            Cycle::ZERO,
            &[(ByteSize::new(5000), TrafficClass::Data)],
        );
        let b = topo.transmit(
            PairId::new(NodeId::gpu(3), NodeId::gpu(1)),
            Cycle::ZERO,
            &[(ByteSize::new(5000), TrafficClass::Data)],
        );
        assert_eq!(a, Cycle::new(100 + 100 + 100));
        assert_eq!(b, Cycle::new(100 + 100 + 200));
    }

    #[test]
    fn ctrl_vc_does_not_contend_with_data() {
        let mut topo = paper_topo();
        let pair = PairId::new(NodeId::gpu(1), NodeId::gpu(2));
        for _ in 0..100 {
            topo.transmit(
                pair,
                Cycle::ZERO,
                &[(ByteSize::CACHELINE, TrafficClass::Data)],
            );
        }
        // A control message still goes through immediately.
        let arrival = topo.transmit_ctrl(
            pair,
            Cycle::ZERO,
            &[(ByteSize::new(16), TrafficClass::Data)],
        );
        assert_eq!(arrival, Cycle::new(1 + 100));
    }

    #[test]
    fn traffic_totals_count_data_once() {
        let mut topo = paper_topo();
        topo.transmit(
            PairId::new(NodeId::gpu(1), NodeId::gpu(2)),
            Cycle::ZERO,
            &[(ByteSize::new(64), TrafficClass::Data)],
        );
        topo.transmit_ctrl(
            PairId::new(NodeId::gpu(1), NodeId::gpu(2)),
            Cycle::ZERO,
            &[(ByteSize::new(16), TrafficClass::Data)],
        );
        topo.charge_background(
            PairId::new(NodeId::gpu(2), NodeId::gpu(1)),
            ByteSize::new(16),
            TrafficClass::Ack,
        );
        let totals = topo.traffic_totals();
        assert_eq!(totals.get(TrafficClass::Data).as_u64(), 80);
        assert_eq!(totals.get(TrafficClass::Ack).as_u64(), 16);
    }

    #[test]
    fn tampered_crossings_accumulate_per_egress() {
        let mut topo = paper_topo();
        assert_eq!(topo.tampered_total(), 0);
        topo.note_tampered_egress(NodeId::gpu(1), 2);
        topo.note_tampered_egress(NodeId::gpu(3), 1);
        assert_eq!(topo.egress(NodeId::gpu(1)).tampered_messages(), 2);
        assert_eq!(topo.egress(NodeId::gpu(2)).tampered_messages(), 0);
        assert_eq!(topo.tampered_total(), 3);
    }

    #[test]
    #[should_panic(expected = "within system")]
    fn out_of_system_pair_panics() {
        let topo = paper_topo();
        let _ = topo.ctrl(PairId::new(NodeId::gpu(1), NodeId::gpu(9)));
    }

    #[test]
    fn ring_transit_charges_each_hop() {
        let mut topo = topo_for(TopologyKind::Ring, 8);
        let pair = PairId::new(NodeId::gpu(1), NodeId::gpu(3));
        assert_eq!(topo.hops(pair), 2);
        let arrival = topo.transmit(
            pair,
            Cycle::ZERO,
            &[(ByteSize::CACHELINE, TrafficClass::Data)],
        );
        // Two store-and-forward legs: (2 ser + 100 lat + 2 ingress) x 2.
        assert_eq!(arrival, Cycle::new(2 * (2 + 100 + 2)));
        // 64 B counted once per hop.
        assert_eq!(
            topo.traffic_totals().get(TrafficClass::Data).as_u64(),
            2 * 64
        );
        // The forwarding GPU's egress carried the transit bytes.
        assert_eq!(
            topo.egress(NodeId::gpu(2))
                .totals()
                .get(TrafficClass::Data)
                .as_u64(),
            64
        );
    }

    #[test]
    fn ring_forwarding_contends_with_own_traffic() {
        let mut topo = topo_for(TopologyKind::Ring, 8);
        // GPU2 is busy sending its own 500 B when GPU1->GPU3 transit
        // traffic reaches it: the transit queues behind it.
        topo.transmit(
            PairId::new(NodeId::gpu(2), NodeId::gpu(3)),
            Cycle::ZERO,
            &[(ByteSize::new(50_000), TrafficClass::Data)],
        );
        let free = topo.egress(NodeId::gpu(2)).next_free();
        let arrival = topo.transmit(
            PairId::new(NodeId::gpu(1), NodeId::gpu(3)),
            Cycle::ZERO,
            &[(ByteSize::CACHELINE, TrafficClass::Data)],
        );
        assert!(
            arrival > free,
            "transit {arrival} should queue behind GPU2's own send ending {free}"
        );
    }

    #[test]
    fn switch_transit_uses_switch_ports() {
        let mut topo = topo_for(TopologyKind::Switch { radix: 4 }, 8);
        let pair = PairId::new(NodeId::gpu(1), NodeId::gpu(5));
        assert_eq!(topo.hops(pair), 4); // gpu -> leaf -> root -> leaf -> gpu
        topo.transmit(
            pair,
            Cycle::ZERO,
            &[(ByteSize::CACHELINE, TrafficClass::Data)],
        );
        assert_eq!(
            topo.traffic_totals().get(TrafficClass::Data).as_u64(),
            4 * 64
        );
        let switch_bytes: u64 = topo
            .iter_switch_egress()
            .map(|(_, l)| l.totals().get(TrafficClass::Data).as_u64())
            .sum();
        assert_eq!(switch_bytes, 3 * 64); // leaf0, root, leaf1
    }

    #[test]
    fn ctrl_latency_and_accounting_scale_with_hops() {
        let mut topo = topo_for(TopologyKind::Ring, 8);
        let far = PairId::new(NodeId::gpu(1), NodeId::gpu(4)); // 3 hops
        let arrival =
            topo.transmit_ctrl(far, Cycle::ZERO, &[(ByteSize::new(16), TrafficClass::Mac)]);
        // 1 cy serialization + 3 x 100 cy propagation.
        assert_eq!(arrival, Cycle::new(1 + 300));
        assert_eq!(topo.traffic_totals().get(TrafficClass::Mac).as_u64(), 48);
        topo.charge_background(far, ByteSize::new(8), TrafficClass::Ack);
        assert_eq!(topo.traffic_totals().get(TrafficClass::Ack).as_u64(), 24);
    }

    #[test]
    fn fully_connected_matches_legacy_split_path() {
        // depart/arrive on a 1-hop route must equal the legacy
        // transmit_egress + ingress_occupy sequence.
        let mut a = paper_topo();
        let mut b = paper_topo();
        let pair = PairId::new(NodeId::gpu(1), NodeId::gpu(2));
        let parts = [(ByteSize::CACHELINE, TrafficClass::Data)];
        let at_a = a.depart(pair, 0, Cycle::ZERO, &parts);
        let done_a = a.arrive(pair, 1, at_a, ByteSize::CACHELINE);
        let at_b = b.transmit_egress(NodeId::gpu(1), Cycle::ZERO, &parts);
        let done_b = b.ingress_occupy(NodeId::gpu(2), at_b, ByteSize::CACHELINE);
        assert_eq!(at_a, at_b);
        assert_eq!(done_a, done_b);
        assert_eq!(a.traffic_totals(), b.traffic_totals());
    }

    mod prop_tests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Per-class byte conservation: for every injected message,
            /// the system-wide totals grow by exactly `bytes x hops` in
            /// that message's class — nothing is dropped, duplicated, or
            /// misclassified anywhere on the route.
            #[test]
            fn bytes_injected_equal_bytes_accounted_per_hop(
                shape in (0u8..3, 3u16..13),
                msgs in proptest::collection::vec(
                    ((1u16..64, 1u16..64), (1u64..4096, 0u8..6)), 1..40),
            ) {
                let (sel, gpus) = shape;
                let kind = match sel {
                    0 => TopologyKind::FullyConnected,
                    1 => TopologyKind::Ring,
                    _ => TopologyKind::Switch { radix: 4 },
                };
                let mut topo = topo_for(kind, gpus);
                let mut expected = TrafficTotals::default();
                for ((s, d), (bytes, class_sel)) in msgs {
                    let src = NodeId::gpu((s - 1) % gpus + 1);
                    let dst = NodeId::gpu((d - 1) % gpus + 1);
                    prop_assume!(src != dst);
                    let pair = PairId::new(src, dst);
                    let class = TrafficClass::ALL[usize::from(class_sel) % 6];
                    let hops = topo.hops(pair) as u64;
                    topo.transmit(pair, Cycle::ZERO, &[(ByteSize::new(bytes), class)]);
                    expected.add(class, ByteSize::new(bytes * hops));
                }
                prop_assert_eq!(topo.traffic_totals(), expected);
            }

            /// Control-VC accounting follows the same x hops rule.
            #[test]
            fn ctrl_bytes_scale_with_route_length(
                shape in (0u8..3, 3u16..13),
                msgs in proptest::collection::vec(
                    ((1u16..64, 1u16..64), 1u64..256), 1..40),
            ) {
                let (sel, gpus) = shape;
                let kind = match sel {
                    0 => TopologyKind::FullyConnected,
                    1 => TopologyKind::Ring,
                    _ => TopologyKind::Switch { radix: 4 },
                };
                let mut topo = topo_for(kind, gpus);
                let mut expected = 0u64;
                for ((s, d), bytes) in msgs {
                    let src = NodeId::gpu((s - 1) % gpus + 1);
                    let dst = NodeId::gpu((d - 1) % gpus + 1);
                    prop_assume!(src != dst);
                    let pair = PairId::new(src, dst);
                    let hops = topo.hops(pair) as u64;
                    topo.transmit_ctrl(
                        pair, Cycle::ZERO, &[(ByteSize::new(bytes), TrafficClass::Mac)]);
                    expected += bytes * hops;
                }
                prop_assert_eq!(topo.traffic_totals().get(TrafficClass::Mac).as_u64(), expected);
            }

            /// Credit conservation and no-starvation under finite VC
            /// credits: every message injected through the typed-reject
            /// retry protocol eventually serves (each `Busy` carries a
            /// strictly-later retry cycle, and the retry count stays
            /// bounded), and once the fabric drains, every server on
            /// every route has returned exactly the credits it issued on
            /// both VCs.
            #[test]
            fn finite_credits_conserve_and_never_starve(
                shape in ((0u8..3, 3u16..13), (1u32..4, 1u32..3)),
                msgs in proptest::collection::vec(
                    ((1u16..64, 1u16..64), (1u64..2048, 0u64..400)), 1..40),
            ) {
                let ((sel, gpus), (data_credits, ctrl_credits)) = shape;
                let kind = match sel {
                    0 => TopologyKind::FullyConnected,
                    1 => TopologyKind::Ring,
                    _ => TopologyKind::Switch { radix: 4 },
                };
                let mut cfg = SystemConfig::paper_4gpu();
                cfg.gpu_count = gpus;
                cfg.topology = kind;
                cfg.flow.data_vc_credits = Some(data_credits);
                cfg.flow.ctrl_vc_credits = Some(ctrl_credits);
                let mut topo = Topology::new(&cfg);

                let mut horizon = Cycle::ZERO;
                for ((s, d), (bytes, start)) in msgs {
                    let src = NodeId::gpu((s - 1) % gpus + 1);
                    let dst = NodeId::gpu((d - 1) % gpus + 1);
                    prop_assume!(src != dst);
                    let pair = PairId::new(src, dst);
                    let parts = [(ByteSize::new(bytes), TrafficClass::Data)];
                    let mut now = Cycle::new(start);
                    for hop in 0..topo.hops(pair) {
                        let mut retries = 0u32;
                        let at = loop {
                            match topo.try_depart(pair, hop, now, &parts) {
                                Ok(done) => break done,
                                Err(busy) => {
                                    prop_assert!(
                                        busy.retry_at > now,
                                        "Busy must carry a strictly-later retry cycle"
                                    );
                                    now = busy.retry_at;
                                    retries += 1;
                                    prop_assert!(
                                        retries <= 64,
                                        "no starvation: retry count stays bounded"
                                    );
                                }
                            }
                        };
                        now = topo.arrive(pair, hop + 1, at, ByteSize::new(bytes));
                    }
                    let ctrl_done = topo.transmit_ctrl(
                        pair, Cycle::new(start), &[(ByteSize::new(16), TrafficClass::Mac)]);
                    horizon = horizon.max(now).max(ctrl_done);
                }

                topo.settle(Cycle::new(horizon.as_u64() + 1));
                let drained = Cycle::new(horizon.as_u64() + 1);
                let check = |server: &TimedServer, label: &str| {
                    for vc in [Vc::Data, Vc::Ctrl] {
                        assert_eq!(
                            server.credits_issued(vc),
                            server.credits_returned(vc),
                            "{label}: credits leaked on {vc:?}"
                        );
                        assert_eq!(
                            server.credits_issued(vc),
                            server.grants(vc),
                            "{label}: issued credits must equal grants on {vc:?}"
                        );
                        assert_eq!(
                            server.occupancy(vc, drained), 0,
                            "{label}: no credits held after drain on {vc:?}"
                        );
                    }
                };
                for (node, server) in topo.iter_egress() {
                    check(server, &format!("egress {node}"));
                }
                for (id, server) in topo.iter_switch_egress() {
                    check(server, &format!("switch egress {id}"));
                }
                for node in NodeId::all(gpus) {
                    check(topo.ingress(node), &format!("ingress {node}"));
                    for dst in node.peers(gpus) {
                        let pair = PairId::new(node, dst);
                        check(topo.ctrl(pair), &format!("ctrl {pair:?}"));
                    }
                }
            }
        }
    }
}
