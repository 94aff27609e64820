//! Deterministic wire-level adversary: fault kinds, the seeded injection
//! schedule, and the security-event accounting the defenses feed.
//!
//! The paper's threat model (§II-C) is an attacker with physical access to
//! the interconnect: they can replay ciphertexts, flip MAC bytes, drop or
//! forge ACKs, tamper with batch trailers and reorder blocks — but cannot
//! break AES-GCM. This module gives that attacker a concrete, *seeded*
//! schedule ([`FaultPlan`]) so an adversarial run is exactly reproducible,
//! and a ledger ([`SecurityEventLog`]) recording, per fault kind and per
//! node pair, whether each injected fault was detected and how long
//! detection took.
//!
//! # Examples
//!
//! ```
//! use mgpu_secure::adversary::{FaultKind, FaultPlan};
//! use mgpu_types::AdversaryConfig;
//!
//! let mut plan = FaultPlan::new(&AdversaryConfig::active(1000));
//! // rate 1000‰ strikes at every opportunity; the kind is drawn
//! // uniformly from the kinds applicable to an unbatched block.
//! let kind = plan.draw(&FaultKind::UNBATCHED_BLOCK).unwrap();
//! assert!(FaultKind::UNBATCHED_BLOCK.contains(&kind));
//! ```

use mgpu_types::{AdversaryConfig, Cycle, NodeId};
use std::collections::BTreeMap;
use std::fmt;

/// The fault classes the wire adversary can inject (paper §II-C attacks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Re-deliver an earlier block with its stale counter.
    ReplayBlock,
    /// Flip a byte of a per-block MAC (or, batched, of the ciphertext the
    /// lazily recomputed MAC covers).
    FlipMac,
    /// Drop an ACK on the return path.
    DropAck,
    /// Forge an ACK's echoed MAC.
    ForgeAck,
    /// Rewrite a batch trailer's 1 B length field.
    TamperTrailerLen,
    /// Flip a byte of a batch trailer's batched MAC.
    TamperTrailerMac,
    /// Swap the batch indices of two adjacent blocks of one batch.
    ReorderBatch,
}

impl FaultKind {
    /// Every fault kind, in declaration order (the log's array index).
    pub const ALL: [FaultKind; 7] = [
        FaultKind::ReplayBlock,
        FaultKind::FlipMac,
        FaultKind::DropAck,
        FaultKind::ForgeAck,
        FaultKind::TamperTrailerLen,
        FaultKind::TamperTrailerMac,
        FaultKind::ReorderBatch,
    ];

    /// Number of fault kinds.
    pub const COUNT: usize = Self::ALL.len();

    /// Kinds applicable when an unbatched (per-block-MAC) block crosses
    /// the wire.
    pub const UNBATCHED_BLOCK: [FaultKind; 4] = [
        FaultKind::ReplayBlock,
        FaultKind::FlipMac,
        FaultKind::DropAck,
        FaultKind::ForgeAck,
    ];

    /// Kinds applicable when a batched block crosses the wire.
    pub const BATCHED_BLOCK: [FaultKind; 3] = [
        FaultKind::ReplayBlock,
        FaultKind::FlipMac,
        FaultKind::ReorderBatch,
    ];

    /// Kinds applicable when a batch trailer (and its ACK) crosses.
    pub const TRAILER: [FaultKind; 4] = [
        FaultKind::TamperTrailerLen,
        FaultKind::TamperTrailerMac,
        FaultKind::DropAck,
        FaultKind::ForgeAck,
    ];

    /// Index of this kind within [`FaultKind::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind in ALL")
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::ReplayBlock => "replay-block",
            FaultKind::FlipMac => "flip-mac",
            FaultKind::DropAck => "drop-ack",
            FaultKind::ForgeAck => "forge-ack",
            FaultKind::TamperTrailerLen => "tamper-trailer-len",
            FaultKind::TamperTrailerMac => "tamper-trailer-mac",
            FaultKind::ReorderBatch => "reorder-batch",
        };
        f.write_str(s)
    }
}

/// The adversary's deterministic injection schedule.
///
/// A small xorshift64* generator seeded from [`AdversaryConfig::seed`]
/// decides, at each *opportunity* (a block, trailer or ACK crossing the
/// wire), whether to strike — with probability `rate_permille / 1000` —
/// and which applicable [`FaultKind`] to use. Identical config ⇒ identical
/// schedule ⇒ identical [`SecurityEventLog`], which the attack-campaign
/// experiment asserts.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    state: u64,
    rate_permille: u32,
}

impl FaultPlan {
    /// Builds the schedule for `config`.
    #[must_use]
    pub fn new(config: &AdversaryConfig) -> Self {
        // splitmix64 step scrambles the user seed into a non-zero state.
        let mut z = config.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        FaultPlan {
            state: (z ^ (z >> 31)).max(1),
            rate_permille: config.rate_permille.min(1000),
        }
    }

    /// Next raw pseudo-random word (xorshift64*).
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Draws whether to strike at this opportunity and, if so, which of
    /// the `applicable` kinds to inject. Always advances the generator the
    /// same number of steps, so the schedule does not depend on earlier
    /// outcomes' branches.
    pub fn draw(&mut self, applicable: &[FaultKind]) -> Option<FaultKind> {
        let strike = self.next_u64() % 1000 < u64::from(self.rate_permille);
        let pick = self.next_u64() as usize % applicable.len().max(1);
        (strike && !applicable.is_empty()).then(|| applicable[pick])
    }

    /// Uniform index in `0..n` (byte/bit positions for tampering).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0, "pick from empty range");
        self.next_u64() as usize % n
    }
}

/// One injected fault, from injection to (expected) detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecurityEvent {
    /// What was injected.
    pub kind: FaultKind,
    /// Sender of the attacked stream.
    pub src: NodeId,
    /// Receiver of the attacked stream.
    pub dst: NodeId,
    /// Cycle the fault was put on the wire.
    pub injected_at: Cycle,
    /// Cycle a defense flagged it (inline error, failed batch
    /// verification, or ACK timeout).
    pub detected_at: Cycle,
}

/// Aggregated security-event accounting for one run.
///
/// Counts injections, detections and misses per [`FaultKind`], detections
/// per attacked `(src, dst)` pair, accumulated time-to-detection, and
/// *false positives* — defense errors on traffic the adversary did not
/// touch, which a correct implementation never produces. It also counts
/// the blocks the functional channel sealed, so a run can show that it
/// really ran AES-GCM.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SecurityEventLog {
    injected: [u64; FaultKind::COUNT],
    detected: [u64; FaultKind::COUNT],
    missed: [u64; FaultKind::COUNT],
    false_positives: u64,
    pair_detections: BTreeMap<(NodeId, NodeId), u64>,
    ttd_sum: u128,
    ttd_count: u64,
    blocks_sealed: u64,
}

impl SecurityEventLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        SecurityEventLog::default()
    }

    /// Records an injected fault that a defense detected.
    pub fn record_detection(&mut self, event: SecurityEvent) {
        let i = event.kind.index();
        self.injected[i] += 1;
        self.detected[i] += 1;
        *self
            .pair_detections
            .entry((event.src, event.dst))
            .or_insert(0) += 1;
        self.ttd_sum += u128::from(
            event
                .detected_at
                .saturating_since(event.injected_at)
                .as_u64(),
        );
        self.ttd_count += 1;
    }

    /// Records an injected fault that *no* defense flagged — a hole.
    pub fn record_miss(&mut self, kind: FaultKind) {
        let i = kind.index();
        self.injected[i] += 1;
        self.missed[i] += 1;
    }

    /// Records a defense error on untouched traffic.
    pub fn record_false_positive(&mut self) {
        self.false_positives += 1;
    }

    /// Records one block sealed with real AES-GCM.
    pub fn record_sealed(&mut self) {
        self.blocks_sealed += 1;
    }

    /// Merges another log into this one.
    pub fn merge(&mut self, other: &SecurityEventLog) {
        for i in 0..FaultKind::COUNT {
            self.injected[i] += other.injected[i];
            self.detected[i] += other.detected[i];
            self.missed[i] += other.missed[i];
        }
        self.false_positives += other.false_positives;
        for (&pair, &n) in &other.pair_detections {
            *self.pair_detections.entry(pair).or_insert(0) += n;
        }
        self.ttd_sum += other.ttd_sum;
        self.ttd_count += other.ttd_count;
        self.blocks_sealed += other.blocks_sealed;
    }

    /// Faults injected for `kind`.
    #[must_use]
    pub fn injected_of(&self, kind: FaultKind) -> u64 {
        self.injected[kind.index()]
    }

    /// Detections for `kind`.
    #[must_use]
    pub fn detected_of(&self, kind: FaultKind) -> u64 {
        self.detected[kind.index()]
    }

    /// Misses for `kind`.
    #[must_use]
    pub fn missed_of(&self, kind: FaultKind) -> u64 {
        self.missed[kind.index()]
    }

    /// Total faults injected.
    #[must_use]
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Total faults detected.
    #[must_use]
    pub fn total_detected(&self) -> u64 {
        self.detected.iter().sum()
    }

    /// Total faults missed.
    #[must_use]
    pub fn total_missed(&self) -> u64 {
        self.missed.iter().sum()
    }

    /// Defense errors on untouched traffic.
    #[must_use]
    pub fn false_positives(&self) -> u64 {
        self.false_positives
    }

    /// Blocks sealed with real AES-GCM during the run.
    #[must_use]
    pub fn blocks_sealed(&self) -> u64 {
        self.blocks_sealed
    }

    /// Detections per attacked `(src, dst)` pair, in deterministic order.
    #[must_use]
    pub fn pair_detections(&self) -> &BTreeMap<(NodeId, NodeId), u64> {
        &self.pair_detections
    }

    /// Detected / injected; `1.0` when nothing was injected.
    #[must_use]
    pub fn detection_rate(&self) -> f64 {
        let injected = self.total_injected();
        if injected == 0 {
            1.0
        } else {
            self.total_detected() as f64 / injected as f64
        }
    }

    /// Mean cycles from injection to detection.
    #[must_use]
    pub fn mean_time_to_detection(&self) -> f64 {
        if self.ttd_count == 0 {
            0.0
        } else {
            self.ttd_sum as f64 / self.ttd_count as f64
        }
    }

    /// Whether the run recorded no security activity at all — what a
    /// fault-free run must look like.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total_injected() == 0 && self.false_positives == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_types::Duration;

    fn event(kind: FaultKind, at: u64, ttd: u64) -> SecurityEvent {
        SecurityEvent {
            kind,
            src: NodeId::gpu(1),
            dst: NodeId::gpu(2),
            injected_at: Cycle::new(at),
            detected_at: Cycle::new(at) + Duration::cycles(ttd),
        }
    }

    #[test]
    fn kind_indices_roundtrip() {
        for (i, kind) in FaultKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        assert_eq!(FaultKind::COUNT, 7);
        // Display names are unique.
        let mut names: Vec<String> = FaultKind::ALL.iter().map(ToString::to_string).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), FaultKind::COUNT);
    }

    #[test]
    fn plan_is_deterministic() {
        let cfg = AdversaryConfig::active(100);
        let mut a = FaultPlan::new(&cfg);
        let mut b = FaultPlan::new(&cfg);
        for _ in 0..1000 {
            assert_eq!(
                a.draw(&FaultKind::UNBATCHED_BLOCK),
                b.draw(&FaultKind::UNBATCHED_BLOCK)
            );
        }
    }

    #[test]
    fn rate_bounds_strike_frequency() {
        let mut never = FaultPlan::new(&AdversaryConfig::active(0));
        let mut always = FaultPlan::new(&AdversaryConfig::active(1000));
        for _ in 0..500 {
            assert!(never.draw(&FaultKind::TRAILER).is_none());
            assert!(always.draw(&FaultKind::TRAILER).is_some());
        }
        let mut sometimes = FaultPlan::new(&AdversaryConfig::active(200));
        let strikes = (0..10_000)
            .filter(|_| sometimes.draw(&FaultKind::TRAILER).is_some())
            .count();
        assert!(
            (1_000..3_000).contains(&strikes),
            "rate 200‰ drew {strikes} strikes in 10k draws"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultPlan::new(&AdversaryConfig {
            seed: 1,
            ..AdversaryConfig::active(500)
        });
        let mut b = FaultPlan::new(&AdversaryConfig {
            seed: 2,
            ..AdversaryConfig::active(500)
        });
        let seq_a: Vec<_> = (0..64).map(|_| a.next_u64()).collect();
        let seq_b: Vec<_> = (0..64).map(|_| b.next_u64()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn log_accounting() {
        let mut log = SecurityEventLog::new();
        assert!(log.is_clean());
        log.record_detection(event(FaultKind::FlipMac, 100, 40));
        log.record_detection(event(FaultKind::FlipMac, 200, 60));
        log.record_miss(FaultKind::DropAck);
        log.record_false_positive();
        assert_eq!(log.injected_of(FaultKind::FlipMac), 2);
        assert_eq!(log.detected_of(FaultKind::FlipMac), 2);
        assert_eq!(log.missed_of(FaultKind::DropAck), 1);
        assert_eq!(log.total_injected(), 3);
        assert_eq!(log.total_detected(), 2);
        assert_eq!(log.total_missed(), 1);
        assert_eq!(log.false_positives(), 1);
        assert!((log.detection_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((log.mean_time_to_detection() - 50.0).abs() < 1e-12);
        assert_eq!(log.pair_detections()[&(NodeId::gpu(1), NodeId::gpu(2))], 2);
        assert!(!log.is_clean());
    }

    #[test]
    fn log_merge_adds_fields() {
        let mut a = SecurityEventLog::new();
        a.record_detection(event(FaultKind::ReplayBlock, 0, 0));
        let mut b = SecurityEventLog::new();
        b.record_detection(event(FaultKind::ReplayBlock, 10, 20));
        b.record_miss(FaultKind::ReorderBatch);
        a.merge(&b);
        assert_eq!(a.total_injected(), 3);
        assert_eq!(a.detected_of(FaultKind::ReplayBlock), 2);
        assert_eq!(a.missed_of(FaultKind::ReorderBatch), 1);
        assert!((a.mean_time_to_detection() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_log_rates() {
        let log = SecurityEventLog::new();
        assert!((log.detection_rate() - 1.0).abs() < f64::EPSILON);
        assert_eq!(log.mean_time_to_detection(), 0.0);
    }
}
