//! Sweep helpers: run benchmarks under scheme variants against a shared
//! unsecure baseline.

use crate::metrics::RunReport;
use crate::simulation::Simulation;
use mgpu_types::{
    AdversaryConfig, ObservabilityConfig, OtpSchemeKind, SecurityConfig, SystemConfig,
};
use mgpu_workloads::Benchmark;

/// One scheme's results on one benchmark, normalized to the unsecure
/// baseline of the same configuration.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// Human-readable configuration label (e.g. `"private-4x"`).
    pub label: String,
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Execution time / unsecure execution time (≥ 1).
    pub normalized_time: f64,
    /// Traffic / unsecure traffic (≥ 1).
    pub traffic_ratio: f64,
    /// The underlying secure run.
    pub report: RunReport,
}

/// Runs `config` and its unsecure twin on `benchmark`, returning the
/// normalized execution time. A degenerate zero-cycle baseline (empty
/// workload) normalizes to 1.0.
///
/// # Examples
///
/// ```
/// use mgpu_system::runner::normalized_time;
/// use mgpu_types::SystemConfig;
/// use mgpu_workloads::Benchmark;
///
/// let slowdown = normalized_time(&SystemConfig::paper_4gpu(), Benchmark::Atax, 400, 42);
/// assert!(slowdown >= 1.0);
/// ```
#[must_use]
pub fn normalized_time(
    config: &SystemConfig,
    benchmark: Benchmark,
    per_gpu: usize,
    seed: u64,
) -> f64 {
    let (secure, baseline) = run_with_baseline(config, benchmark, per_gpu, seed);
    secure.normalized_time(&baseline).unwrap_or(1.0)
}

/// Runs `config` on `benchmark` together with the matching unsecure
/// baseline (identical except for the disabled security layer); returns
/// `(secure, baseline)`.
#[must_use]
pub fn run_with_baseline(
    config: &SystemConfig,
    benchmark: Benchmark,
    per_gpu: usize,
    seed: u64,
) -> (RunReport, RunReport) {
    let mut base_cfg = config.clone();
    base_cfg.security.scheme = OtpSchemeKind::Unsecure;
    base_cfg.security.batching.enabled = false;
    let baseline = Simulation::new(base_cfg, benchmark, seed).run_for_requests(per_gpu);
    let secure = Simulation::new(config.clone(), benchmark, seed).run_for_requests(per_gpu);
    (secure, baseline)
}

/// The parts of a configuration that determine the unsecure baseline:
/// everything except the security layer, the adversary schedule and the
/// (timing-neutral) observability settings.
fn baseline_view(config: &SystemConfig) -> SystemConfig {
    let mut c = config.clone();
    c.security = SecurityConfig::default();
    c.adversary = AdversaryConfig::default();
    c.observability = ObservabilityConfig::default();
    c
}

/// Runs several labeled configurations on one benchmark against a single
/// shared unsecure baseline.
///
/// All configurations must agree on every baseline-relevant field
/// (topology, bandwidths, latencies — everything outside `security` and
/// `adversary`): the shared baseline is built from the first entry, and a
/// heterogeneous list would silently normalize later entries against a
/// mismatched baseline.
///
/// # Panics
///
/// Panics if a configuration disagrees with the first on a
/// baseline-relevant field, naming the offending label.
#[must_use]
pub fn compare_schemes(
    benchmark: Benchmark,
    configs: &[(String, SystemConfig)],
    per_gpu: usize,
    seed: u64,
) -> Vec<SchemeResult> {
    if let Some((first_label, first)) = configs.first() {
        let reference = baseline_view(first);
        for (label, cfg) in configs {
            assert!(
                baseline_view(cfg) == reference,
                "config {label:?} differs from {first_label:?} on a baseline-relevant \
                 field; compare_schemes shares one unsecure baseline across the list"
            );
        }
    }
    let baseline = {
        let mut base_cfg = configs
            .first()
            .map(|(_, c)| c.clone())
            .unwrap_or_else(SystemConfig::paper_4gpu);
        base_cfg.security.scheme = OtpSchemeKind::Unsecure;
        base_cfg.security.batching.enabled = false;
        Simulation::new(base_cfg, benchmark, seed).run_for_requests(per_gpu)
    };
    configs
        .iter()
        .map(|(label, cfg)| {
            let report = Simulation::new(cfg.clone(), benchmark, seed).run_for_requests(per_gpu);
            SchemeResult {
                label: label.clone(),
                benchmark,
                // Degenerate zero-cycle / zero-byte baselines normalize
                // to 1.0 rather than aborting the whole sweep.
                normalized_time: report.normalized_time(&baseline).unwrap_or(1.0),
                traffic_ratio: report.traffic_ratio(&baseline).unwrap_or(1.0),
                report,
            }
        })
        .collect()
}

/// Convenience constructors for the paper's standard configurations.
pub mod configs {
    use mgpu_types::{OtpSchemeKind, SystemConfig};

    /// `Private (OTP Nx)`.
    #[must_use]
    pub fn private(base: &SystemConfig, multiplier: u32) -> SystemConfig {
        let mut cfg = base.clone();
        cfg.security.scheme = OtpSchemeKind::Private;
        cfg.security.otp_multiplier = multiplier;
        cfg.security.batching.enabled = false;
        cfg
    }

    /// `Shared` with the same total buffer budget.
    #[must_use]
    pub fn shared(base: &SystemConfig, multiplier: u32) -> SystemConfig {
        let mut cfg = private(base, multiplier);
        cfg.security.scheme = OtpSchemeKind::Shared;
        cfg
    }

    /// `Cached (OTP Nx)`.
    #[must_use]
    pub fn cached(base: &SystemConfig, multiplier: u32) -> SystemConfig {
        let mut cfg = private(base, multiplier);
        cfg.security.scheme = OtpSchemeKind::Cached;
        cfg
    }

    /// The paper's `Dynamic (OTP Nx)` without batching.
    #[must_use]
    pub fn dynamic(base: &SystemConfig, multiplier: u32) -> SystemConfig {
        let mut cfg = private(base, multiplier);
        cfg.security.scheme = OtpSchemeKind::Dynamic;
        cfg
    }

    /// The paper's full proposal: `Dynamic` + metadata `Batching`.
    #[must_use]
    pub fn batching(base: &SystemConfig, multiplier: u32) -> SystemConfig {
        let mut cfg = dynamic(base, multiplier);
        cfg.security.batching.enabled = true;
        cfg
    }

    /// `Dynamic` with load-triggered repartitioning: the OTP pool is
    /// repartitioned when the observed arrival rate shifts, instead of
    /// at every fixed interval.
    #[must_use]
    pub fn load_dynamic(base: &SystemConfig, multiplier: u32) -> SystemConfig {
        let mut cfg = dynamic(base, multiplier);
        cfg.security.dynamic.load_triggered = true;
        cfg
    }

    /// `Dynamic` + `Batching` with deadline-aware batch close: open
    /// batches close early when the oldest queued block's SLO slack
    /// drops below the estimated time to fill the batch.
    #[must_use]
    pub fn deadline_batching(base: &SystemConfig, multiplier: u32) -> SystemConfig {
        let mut cfg = batching(base, multiplier);
        cfg.security.batching.deadline_close = true;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_time_is_at_least_one() {
        let cfg = configs::private(&SystemConfig::paper_4gpu(), 4);
        let t = normalized_time(&cfg, Benchmark::Gesummv, 200, 1);
        assert!(t >= 1.0, "secure cannot beat unsecure: {t}");
    }

    #[test]
    fn compare_schemes_shares_baseline() {
        let base = SystemConfig::paper_4gpu();
        let results = compare_schemes(
            Benchmark::Atax,
            &[
                ("private-4x".into(), configs::private(&base, 4)),
                ("dynamic-4x".into(), configs::dynamic(&base, 4)),
            ],
            200,
            1,
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].label, "private-4x");
        for r in &results {
            assert!(r.normalized_time >= 1.0);
            assert!(r.traffic_ratio > 1.0);
        }
    }

    #[test]
    fn config_constructors_set_fields() {
        let base = SystemConfig::paper_4gpu();
        assert_eq!(configs::private(&base, 16).security.otp_multiplier, 16);
        assert_eq!(
            configs::shared(&base, 4).security.scheme,
            mgpu_types::OtpSchemeKind::Shared
        );
        let b = configs::batching(&base, 4);
        assert!(b.security.batching.enabled);
        assert_eq!(b.security.scheme, mgpu_types::OtpSchemeKind::Dynamic);
    }

    #[test]
    fn empty_compare_is_empty() {
        assert!(compare_schemes(Benchmark::Atax, &[], 10, 1).is_empty());
    }

    #[test]
    fn compare_accepts_heterogeneous_security_settings() {
        // Different OTP multipliers / schemes share the same baseline —
        // only non-security fields must agree.
        let base = SystemConfig::paper_4gpu();
        let results = compare_schemes(
            Benchmark::Atax,
            &[
                ("private-4x".into(), configs::private(&base, 4)),
                ("private-16x".into(), configs::private(&base, 16)),
                ("batching-4x".into(), configs::batching(&base, 4)),
            ],
            100,
            1,
        );
        assert_eq!(results.len(), 3);
    }

    #[test]
    #[should_panic(expected = "baseline-relevant")]
    fn compare_rejects_mismatched_topology() {
        let base = SystemConfig::paper_4gpu();
        let mut bigger = base.clone();
        bigger.gpu_count = 8;
        let _ = compare_schemes(
            Benchmark::Atax,
            &[
                ("4gpu".into(), configs::private(&base, 4)),
                ("8gpu".into(), configs::private(&bigger, 4)),
            ],
            50,
            1,
        );
    }
}
