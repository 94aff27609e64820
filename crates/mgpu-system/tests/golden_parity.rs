//! Golden parity: the routed-fabric refactor must reproduce the
//! pre-refactor timings bit for bit under `TopologyKind::FullyConnected`.
//!
//! The constants below were captured from the monolithic (pre-fabric)
//! timing loop: the seeded `compare_schemes` matrix over the paper's
//! 4-GPU system, 200 requests per GPU, seed 42. The event queue breaks
//! time ties by insertion order, so any change to the call sequence of
//! the fully-connected hot path shows up here as a cycle or byte drift.
//! If this test fails, the refactor changed simulated behaviour — fix
//! the code, do not re-capture the constants.

use mgpu_system::runner::{compare_schemes, configs};
use mgpu_system::Simulation;
use mgpu_types::{Duration, ObservabilityConfig, SystemConfig, TopologyKind};
use mgpu_workloads::{ArrivalProcess, Benchmark, ServingModel};

/// (scheme label, benchmark, total cycles, total wire bytes, events
/// processed by an unobserved run).
///
/// The event counts are not model output: they pin how much work the
/// engine does for the same simulated system, so a change that adds or
/// elides events shows up here in review while the cycle and byte
/// columns must not move with it.
const GOLDEN: &[(&str, Benchmark, u64, u64, u64)] = &[
    (
        "private-4x",
        Benchmark::MatrixTranspose,
        5704,
        110_030,
        8664,
    ),
    (
        "private-16x",
        Benchmark::MatrixTranspose,
        3412,
        110_030,
        8660,
    ),
    (
        "shared-4x",
        Benchmark::MatrixTranspose,
        14_504,
        110_030,
        8519,
    ),
    ("cached-4x", Benchmark::MatrixTranspose, 5145, 110_030, 8683),
    (
        "dynamic-4x",
        Benchmark::MatrixTranspose,
        5210,
        110_030,
        8658,
    ),
    (
        "batching-4x",
        Benchmark::MatrixTranspose,
        4265,
        89_531,
        7141,
    ),
    ("private-4x", Benchmark::Spmv, 3844, 96_800, 7838),
    ("private-16x", Benchmark::Spmv, 2440, 96_800, 7833),
    ("shared-4x", Benchmark::Spmv, 10_299, 96_800, 7858),
    ("cached-4x", Benchmark::Spmv, 3456, 96_800, 7887),
    ("dynamic-4x", Benchmark::Spmv, 3582, 96_800, 7837),
    ("batching-4x", Benchmark::Spmv, 3676, 79_275, 6655),
];

fn scheme_matrix(base: &SystemConfig) -> Vec<(String, SystemConfig)> {
    vec![
        ("private-4x".to_string(), configs::private(base, 4)),
        ("private-16x".to_string(), configs::private(base, 16)),
        ("shared-4x".to_string(), configs::shared(base, 4)),
        ("cached-4x".to_string(), configs::cached(base, 4)),
        ("dynamic-4x".to_string(), configs::dynamic(base, 4)),
        ("batching-4x".to_string(), configs::batching(base, 4)),
    ]
}

/// Checks the matrix under `base` against [`GOLDEN`]; the event column
/// only for unobserved runs, since sampling adds events of its own.
fn assert_matches_golden(base: &SystemConfig, context: &str) {
    let cfgs = scheme_matrix(base);
    for bench in [Benchmark::MatrixTranspose, Benchmark::Spmv] {
        for r in compare_schemes(bench, &cfgs, 200, 42) {
            let (_, _, cycles, bytes, events) = *GOLDEN
                .iter()
                .find(|(label, b, ..)| *label == r.label && *b == bench)
                .unwrap_or_else(|| panic!("no golden entry for {} / {bench:?}", r.label));
            assert_eq!(
                r.report.total_cycles.as_u64(),
                cycles,
                "{context}: {} / {bench:?}: cycle drift",
                r.label
            );
            assert_eq!(
                r.report.traffic.total().as_u64(),
                bytes,
                "{context}: {} / {bench:?}: wire-byte drift",
                r.label
            );
            if !base.observability.enabled {
                assert_eq!(
                    r.report.events_processed, events,
                    "{context}: {} / {bench:?}: engine event count moved",
                    r.label
                );
            }
        }
    }
}

#[test]
fn fully_connected_reproduces_pre_fabric_timings_bit_for_bit() {
    let base = SystemConfig::paper_4gpu();
    assert_eq!(base.topology, TopologyKind::FullyConnected);
    assert!(!base.observability.enabled, "golden matrix runs unobserved");
    assert_matches_golden(&base, "observability off");
}

/// Observability must be a pure observer: enabling it replays the exact
/// golden matrix — same cycles, same wire bytes — while actually
/// producing timelines. (`pads_issued` is intentionally excluded: eager
/// boundary sampling may issue pads for trailing boundaries an idle
/// node's lazy path never reaches; see `mgpu_system::timeseries`.)
#[test]
fn observability_enabled_changes_no_timing() {
    let mut base = SystemConfig::paper_4gpu();
    base.observability = ObservabilityConfig::enabled();
    assert_matches_golden(&base, "observability on");

    // And the observed runs really did collect interval series.
    let cfgs = scheme_matrix(&base);
    let results = compare_schemes(Benchmark::MatrixTranspose, &cfgs, 200, 42);
    let dynamic = results
        .iter()
        .find(|r| r.label == "dynamic-4x")
        .expect("dynamic cell present");
    let timeline = dynamic
        .report
        .timeline
        .as_ref()
        .expect("observed run attaches a timeline");
    assert!(
        !timeline.samples.is_empty(),
        "dynamic run spans interval boundaries"
    );
    assert!(
        timeline.samples.iter().any(|s| s.rebalances > 0),
        "dynamic scheme repartitioned during the run"
    );
    assert!(!timeline.fabric.is_empty());
    assert!(timeline.scope_counts.contains_key("BlockDone"));

    // The flow-substrate counters ride along in the same samples: every
    // port that moved bytes accumulated arbitration grants, and the ACK
    // gates handed out credits. Occupancy is a boundary snapshot, so it
    // may legitimately be zero when a boundary lands in an idle gap, so
    // only grants are asserted, not occupancy values.
    assert!(
        timeline
            .fabric
            .iter()
            .all(|f| f.bytes_delta == 0 || f.grants > 0),
        "ports that carried bytes must have recorded grants"
    );
    assert!(
        timeline.fabric.iter().any(|f| f.grants > 0),
        "at least one port arbitrated traffic"
    );
    assert!(
        timeline.samples.iter().any(|s| s.ack_window_grants > 0),
        "ACK gates issued credits during the run"
    );
}

/// The PR 7 serving path runs open-loop (absolute arrival times) with
/// per-request deadlines — a different issue cadence from the closed-loop
/// golden matrix, so it gets its own pinned cell: a seeded Poisson
/// serving trace under dynamic+batching with observability on, pinned
/// bit for bit. The constants were captured the same way as the
/// closed-loop matrix; if this test fails, fix the code, do not
/// re-capture them.
#[test]
fn open_loop_serving_cell_stays_bit_for_bit() {
    const SERVING_CYCLES: u64 = 3_087;
    const SERVING_BYTES: u64 = 82_225;
    // Engine work, not model output (see `GOLDEN`). Observed runs elide
    // no events, so this count includes every `Sample`.
    const SERVING_EVENTS: u64 = 16_818;

    let mut base = SystemConfig::paper_4gpu();
    base.observability = ObservabilityConfig::enabled();
    let cfg = configs::batching(&base, 4);
    let trace = ServingModel::new(4, 42, ArrivalProcess::poisson(12.0))
        .with_zipf(0.9)
        .with_deadline(Duration::cycles(1_200))
        .generate_all(200);

    let reference = Simulation::new(cfg, Benchmark::MatrixTranspose, 42)
        .with_open_loop()
        .run_trace(trace);
    assert_eq!(
        reference.total_cycles.as_u64(),
        SERVING_CYCLES,
        "open-loop serving cell: cycle drift"
    );
    assert_eq!(
        reference.traffic.total().as_u64(),
        SERVING_BYTES,
        "open-loop serving cell: wire-byte drift"
    );
    assert_eq!(
        reference.events_processed, SERVING_EVENTS,
        "open-loop serving cell: engine event count moved"
    );
    assert!(
        reference.latency.with_deadline > 0,
        "serving cell records SLO outcomes"
    );
    assert!(
        reference
            .timeline
            .as_ref()
            .is_some_and(|t| !t.samples.is_empty()),
        "observed serving run attaches interval samples"
    );
}

/// Crypto-backend parity: armed cells — where the wire harness seals,
/// opens and MACs every block with real AES-GCM — must produce identical
/// reports and security logs whether the functional crypto runs on the
/// software T-table/Shoup paths or the hardware AES-NI/PCLMULQDQ paths.
/// The backends are property-tested equal primitive-by-primitive in
/// `mgpu-crypto`; this asserts the end-to-end claim at the system level,
/// on the unbatched (per-block MACs) and batched (lazy verification,
/// trailer MACs) protocols, and checks that crypto actually ran. On hosts
/// without the hardware features both halves run soft.
#[test]
fn crypto_backends_reproduce_identical_armed_reports() {
    use mgpu_crypto::backend::{set_default_backend, Backend};
    use mgpu_types::AdversaryConfig;

    let mut base = SystemConfig::paper_4gpu();
    base.adversary = AdversaryConfig::active(100);
    let cfgs = vec![
        ("private-4x".to_string(), configs::private(&base, 4)),
        ("batching-4x".to_string(), configs::batching(&base, 4)),
    ];
    let auto = if Backend::HwAesClmul.is_available() {
        Backend::HwAesClmul
    } else {
        Backend::Soft
    };
    for bench in [Benchmark::MatrixTranspose, Benchmark::Spmv] {
        set_default_backend(Backend::Soft);
        let soft = compare_schemes(bench, &cfgs, 200, 42);
        set_default_backend(auto);
        let hw = compare_schemes(bench, &cfgs, 200, 42);
        for (s, h) in soft.iter().zip(hw.iter()) {
            let context = format!("{} / {bench:?}: soft vs {} backend", s.label, auto.name());
            assert!(
                s.report.security.blocks_sealed() > 0,
                "{context}: no block was sealed"
            );
            assert!(
                s.report.security.total_injected() > 0,
                "{context}: the adversary never struck"
            );
            assert_eq!(
                s.report.security, h.report.security,
                "{context}: security log drift"
            );
            assert_eq!(
                format!("{:?}", s.report),
                format!("{:?}", h.report),
                "{context}: report drift"
            );
        }
    }
    // Leave the process default as detection would have chosen it.
    set_default_backend(auto);
}

/// The traffic-shape defenses ship default-off, and off must mean *off*:
/// a config that spells out the default [`DefenseConfig`] (rather than
/// omitting it) replays the golden 12-cell matrix bit for bit. Guards
/// against the chaff scheduling or the jittered deadline path leaking
/// into undefended runs.
#[test]
fn defenses_off_reproduce_golden_matrix() {
    use mgpu_types::DefenseConfig;

    let mut base = SystemConfig::paper_4gpu();
    base.security.defense = DefenseConfig::default();
    assert!(!base.security.defense.any_enabled());
    assert_matches_golden(&base, "defenses off");
}
