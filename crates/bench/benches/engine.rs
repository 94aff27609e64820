//! Engine-throughput benchmarks: the discrete-event core in isolation and
//! full simulation cells.
//!
//! Two layers:
//!
//! * `engine-queue` — the calendar [`EventQueue`] against the
//!   [`HeapEventQueue`] oracle under the simulator's characteristic
//!   event-gap distribution (same-cycle reissues, link latencies, DRAM
//!   access, flush timeouts) at a sustained backlog, isolating the
//!   scheduler from the rest of the engine; plus `calendar-cold-cell`,
//!   the life of one short simulation cell's queue: built fresh, about
//!   20k events over about 17k cycles with a 16-byte payload, drained.
//! * `engine` — representative simulation cells (a fig25-style 4-GPU
//!   batching run, a topology-scaling-style 8-GPU ring run, a 16-GPU
//!   Dynamic cell from the paper-scale scheme matrix, and three scale-out
//!   cells: 64 GPUs on a radix-4 switch under Batching, 128 GPUs on the
//!   same switch under Dynamic, and 128 fully connected GPUs under
//!   Private, which track how per-event cost grows with GPU count). Each cell
//!   reports wall-clock per run through criterion and prints an
//!   `engine-events-per-sec` line derived from the run's
//!   `events_processed` count; CI's bench-smoke gate parses that line and
//!   compares it against the checked-in floor in
//!   `crates/bench/engine-floor.txt`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mgpu_sim::events::{EventQueue, HeapEventQueue};
use mgpu_system::runner::configs;
use mgpu_system::Simulation;
use mgpu_types::{Cycle, SystemConfig, TopologyKind};
use mgpu_workloads::Benchmark;
use std::time::Instant;

/// Event gaps matching the simulator's real horizons: same-cycle
/// reissues, NIC/link service, DRAM access, flush timeouts, and the
/// occasional long repartition-interval hop.
const GAPS: [u64; 8] = [0, 2, 7, 40, 100, 161, 200, 1000];

/// Pending events held in flight during the queue churn benchmarks,
/// matching the order of magnitude a busy 8-GPU cell sustains.
const BACKLOG: usize = 512;

/// Events scheduled over one cold cell's queue lifetime.
const CELL_EVENTS: u64 = 20_000;

/// Pending events a cold cell keeps in flight; with the mean of `GAPS`
/// this spreads `CELL_EVENTS` over about 17k cycles.
const CELL_POPULATION: u64 = 224;

/// One short cell's queue, start to finish: a fresh queue, a population
/// of `CELL_POPULATION` events each rescheduled on pop until
/// `CELL_EVENTS` were scheduled, then drained. Returns the final cycle.
fn cold_cell() -> u64 {
    let mut q: EventQueue<(u64, u64)> = EventQueue::new();
    for i in 0..CELL_POPULATION {
        q.schedule(Cycle::new(GAPS[(i % 8) as usize]), (i, 0));
    }
    let mut scheduled = CELL_POPULATION;
    while let Some((now, (i, n))) = q.pop() {
        if scheduled < CELL_EVENTS {
            let gap = GAPS[((i + n) % 8) as usize];
            q.schedule(Cycle::new(now.as_u64() + gap), black_box((i, n + 1)));
            scheduled += 1;
        }
    }
    q.now().as_u64()
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine-queue");
    group.bench_function("calendar-pop-schedule", |b| {
        let mut q = EventQueue::new();
        for i in 0..BACKLOG {
            q.schedule(Cycle::new(GAPS[i % GAPS.len()]), i as u64);
        }
        let mut i = 0usize;
        b.iter(|| {
            let (now, payload) = q.pop().expect("backlog never drains");
            let gap = GAPS[i % GAPS.len()];
            i += 1;
            q.schedule(Cycle::new(now.as_u64() + gap), black_box(payload));
            payload
        });
    });
    println!(
        "calendar-cold-cell: {CELL_EVENTS} events over {} cycles",
        cold_cell()
    );
    group.bench_function("calendar-cold-cell", |b| b.iter(cold_cell));
    group.bench_function("heap-pop-schedule", |b| {
        let mut q = HeapEventQueue::new();
        for i in 0..BACKLOG {
            q.schedule(Cycle::new(GAPS[i % GAPS.len()]), i as u64);
        }
        let mut i = 0usize;
        b.iter(|| {
            let (now, payload) = q.pop().expect("backlog never drains");
            let gap = GAPS[i % GAPS.len()];
            i += 1;
            q.schedule(Cycle::new(now.as_u64() + gap), black_box(payload));
            payload
        });
    });
    group.finish();
}

/// A `gpus`-GPU system on the paper's 4-GPU link parameters.
fn scaled(gpus: u16, topology: TopologyKind) -> SystemConfig {
    let mut base = SystemConfig::paper_4gpu();
    base.gpu_count = gpus;
    base.with_topology(topology)
}

/// The cells the throughput gate tracks: the same shapes fig25, the
/// topology-scaling sweep and the paper-scale scheme matrix lean on
/// hardest.
fn cells() -> Vec<(&'static str, SystemConfig)> {
    let base4 = SystemConfig::paper_4gpu();
    let base8 = SystemConfig::paper_8gpu().with_topology(TopologyKind::Ring);
    let switch = TopologyKind::Switch { radix: 4 };
    vec![
        ("4gpu-batching", configs::batching(&base4, 4)),
        ("8gpu-ring-batching", configs::batching(&base8, 4)),
        (
            "16gpu-dynamic",
            configs::dynamic(&SystemConfig::paper_16gpu(), 4),
        ),
        (
            "64gpu-switch-batching",
            configs::batching(&scaled(64, switch), 4),
        ),
        (
            "128gpu-switch-dynamic",
            configs::dynamic(&scaled(128, switch), 4),
        ),
        (
            "128gpu-fc-private",
            configs::private(&scaled(128, TopologyKind::FullyConnected), 4),
        ),
    ]
}

fn bench_engine_cells(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    for (label, cfg) in cells() {
        // Timed pre-runs derive events/sec for the CI floor gate. Best of
        // five: the floor compares against peak engine throughput, which
        // is far more stable than any single ~millisecond sample on a
        // noisy runner. The criterion loop below then tracks wall-clock.
        let mut best = 0.0f64;
        let mut events = 0u64;
        for _ in 0..5 {
            let sim = Simulation::new(cfg.clone(), Benchmark::MatrixTranspose, 42);
            let started = Instant::now();
            let report = sim.run_for_requests(200);
            let seconds = started.elapsed().as_secs_f64();
            events = report.events_processed;
            best = best.max(report.events_processed as f64 / seconds.max(f64::EPSILON));
        }
        println!("engine-events-per-sec {label} {best:.0} ({events} events per run, best of 5)");
        group.bench_function(format!("cell-mt-200req-{label}"), |b| {
            b.iter(|| {
                Simulation::new(cfg.clone(), Benchmark::MatrixTranspose, 42).run_for_requests(200)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue, bench_engine_cells);
criterion_main!(benches);
