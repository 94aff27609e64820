//! What a cell's simulation produced, reduced to the values the checks
//! compare and the model metrics pool.

use mgpu_secure::OtpStats;
use mgpu_sim::link::TrafficTotals;
use mgpu_system::RunReport;

/// The simulated outcome of one cell. Two runs of the same cell on the
/// same input must produce equal outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub total_cycles: u64,
    /// Sum of per-request latencies (completion − issue), cycles.
    pub sum_latency: u64,
    pub requests: u64,
    pub blocks: u64,
    pub latency_samples: usize,
    pub traffic: TrafficTotals,
    pub otp: OtpStats,
    pub acks_sent: u64,
    pub batch_occupancy_bits: u64,
    /// FNV-1a over the bits of every per-request latency stamp.
    pub latency_digest: u64,
    /// p99 of per-request total latency (completion − arrival), cycles.
    pub p99_latency: f64,
    pub faults_injected: u64,
    pub faults_detected: u64,
    pub false_positives: u64,
    /// Differs between observed and unobserved runs: sampling adds events.
    pub events: u64,
    /// Differs between observed and unobserved runs: eager boundary
    /// sampling may issue pads an idle node's lazy path never reaches.
    pub pads_issued: u64,
}

impl Outcome {
    pub fn of(report: &RunReport) -> Self {
        let lat = &report.latency;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for v in lat.total.iter().chain(&lat.first_byte).chain(&lat.service) {
            for byte in v.to_bits().to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        Outcome {
            total_cycles: report.total_cycles.as_u64(),
            sum_latency: report.sum_request_latency.as_u64(),
            requests: report.requests,
            blocks: report.blocks,
            latency_samples: lat.total.len(),
            traffic: report.traffic,
            otp: report.otp,
            acks_sent: report.acks_sent,
            batch_occupancy_bits: report.mean_batch_occupancy.to_bits(),
            latency_digest: digest,
            p99_latency: lat.total_percentile(99.0).unwrap_or(f64::NAN),
            faults_injected: report.security.total_injected(),
            faults_detected: report.security.total_detected(),
            false_positives: report.security.false_positives(),
            events: report.events_processed,
            pads_issued: report.pads_issued,
        }
    }

    /// The outcome without the two fields observation may change: what an
    /// observed run must reproduce exactly.
    pub fn modelled(&self) -> Self {
        Outcome {
            events: 0,
            pads_issued: 0,
            ..self.clone()
        }
    }
}
