//! Observability neutrality: for *any* topology, scheme, scale, and seed,
//! turning observability on must leave the [`RunReport`] identical to the
//! unobserved run's. The golden-parity test pins this on the paper's
//! 12-cell matrix; this property test sweeps the configuration space
//! around it.
//!
//! Three fields are exempt by design: `timeline` (only observed runs
//! carry one), `events_processed` (the sampler's boundary events are
//! popped like any other), and `pads_issued` (eager boundary processing
//! may issue pads for trailing boundaries an idle node's lazy path never
//! reaches; see `mgpu_system::timeseries`).

use mgpu_system::runner::configs;
use mgpu_system::simulation::Simulation;
use mgpu_system::RunReport;
use mgpu_types::{ObservabilityConfig, SystemConfig, TopologyKind};
use mgpu_workloads::Benchmark;
use proptest::prelude::*;

fn base_config(gpus: u8, topo: u8) -> SystemConfig {
    let base = match gpus {
        0 => SystemConfig::paper_4gpu(),
        1 => SystemConfig::paper_8gpu(),
        _ => SystemConfig::paper_16gpu(),
    };
    base.with_topology(match topo {
        0 => TopologyKind::FullyConnected,
        1 => TopologyKind::Ring,
        _ => TopologyKind::Switch { radix: 4 },
    })
}

fn scheme_config(base: &SystemConfig, scheme: u8) -> SystemConfig {
    match scheme {
        0 => configs::private(base, 4),
        1 => configs::shared(base, 4),
        2 => configs::cached(base, 4),
        3 => configs::dynamic(base, 4),
        _ => configs::batching(base, 4),
    }
}

/// The report's `Debug` rendering with the exempt fields taken from
/// `reference`, so string equality is equality on everything else.
fn comparable(mut report: RunReport, reference: &RunReport) -> String {
    report.timeline = None;
    report.pads_issued = reference.pads_issued;
    report.events_processed = reference.events_processed;
    format!("{report:?}")
}

proptest! {
    #[test]
    fn observing_any_cell_changes_nothing_but_the_exempt_fields(
        gpus in 0u8..3,
        topo in 0u8..3,
        scheme in 0u8..5,
        seed in 0u64..1000,
        per_gpu in 10usize..30,
        spmv in any::<bool>(),
    ) {
        let bench = if spmv { Benchmark::Spmv } else { Benchmark::MatrixTranspose };
        let cfg = scheme_config(&base_config(gpus, topo), scheme);
        let mut observed_cfg = cfg.clone();
        observed_cfg.observability = ObservabilityConfig::enabled();

        let plain = Simulation::new(cfg, bench, seed).run_for_requests(per_gpu);
        let observed = Simulation::new(observed_cfg, bench, seed).run_for_requests(per_gpu);
        prop_assert!(observed.timeline.is_some(), "observed run attaches a timeline");
        prop_assert!(plain.timeline.is_none(), "unobserved run carries no timeline");

        let expected = format!("{plain:?}");
        let actual = comparable(observed, &plain);
        prop_assert!(
            expected == actual,
            "gpus={} topo={} scheme={} seed={} per_gpu={}:\n-{}\n+{}",
            gpus, topo, scheme, seed, per_gpu, expected, actual
        );
    }
}
