//! End-to-end and per-layer benchmark of the secure multi-GPU simulator.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Drives the simulator through its public API in one thread. Set-up
//! generates every cell's input from the seed; each pass then simulates
//! every cell once with `Simulation::new(..).run_trace(..)`, and passes
//! repeat for `--seconds`. Every output is checked, and the last line of
//! standard output is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). See README.md.

mod cells;
mod outcome;
mod replay;
mod spans;

use cells::{Cell, Workload};
use mgpu_secure::PadClass;
use mgpu_sim::stats::percentile_sorted;
use mgpu_system::RunReport;
use mgpu_types::Direction;
use mgpu_workloads::Request;
use outcome::Outcome;
use spans::Spans;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Fewest passes in a run.
const MIN_PASSES: usize = 3;

/// How far below its unsecure twin's makespan a secure cell's may fall
/// (see `check_outputs`).
const MAKESPAN_TOLERANCE: f64 = 0.01;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <paper-closed|switch-scale|serving-open|wire-attack> \
     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // A printed result carries its own verdict in `correct`; the exit code
    // only says whether the run produced one.
    println!("{}", run(&args).json());
    ExitCode::SUCCESS
}

/// A named metric value.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; they only arise from a
            // defect, which has already cleared `correct`.
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

/// Failed checks: per cell (these make up `failed`) and for the
/// benchmark as a whole (replay calibration, input determinism).
struct Checks {
    cell_failed: Vec<bool>,
    benchmark_errors: usize,
}

impl Checks {
    fn cell(&mut self, cells: &[Cell], i: usize, ok: bool, what: &str) {
        if !ok {
            eprintln!("check failed: {}: {what}", cells[i].label);
            self.cell_failed[i] = true;
        }
    }

    fn benchmark(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("check failed: {what}");
            self.benchmark_errors += 1;
        }
    }

    fn failed(&self) -> usize {
        self.cell_failed.iter().filter(|&&f| f).count()
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0).unwrap_or(f64::NAN)
}

fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile_sorted(values, p).unwrap_or(f64::NAN)
}

/// The workload's cells and inputs, and the timings of every set-up.
///
/// Set-up is repeated before every pass, so that its median samples the
/// host over the whole run like the passes do; each repetition must
/// generate the same inputs.
struct Setup {
    cells: Vec<Cell>,
    inputs: Vec<Vec<Request>>,
    /// Host seconds of each set-up: configs plus every cell's input.
    setup_s: Vec<f64>,
    /// Seconds inside `generate` spans of each traced set-up.
    gen_s: Vec<f64>,
}

impl Setup {
    fn new(args: &Args, spans: Option<&mut Spans>) -> Self {
        let mut setup = Setup {
            cells: Vec::new(),
            inputs: Vec::new(),
            setup_s: Vec::new(),
            gen_s: Vec::new(),
        };
        (setup.cells, setup.inputs) = setup.generate(args, spans);
        setup
    }

    fn generate(
        &mut self,
        args: &Args,
        mut spans: Option<&mut Spans>,
    ) -> (Vec<Cell>, Vec<Vec<Request>>) {
        let start = Instant::now();
        let mut gen_ns = 0;
        let cells = args.workload.cells(args.seed);
        let inputs = cells
            .iter()
            .map(|cell| {
                let span = spans
                    .as_mut()
                    .map(|s| s.open("workloads", "generate", None));
                let input = cell.generate();
                if let (Some(s), Some(id)) = (spans.as_mut(), span) {
                    gen_ns += s.close(id);
                }
                input
            })
            .collect();
        self.setup_s.push(secs(start.elapsed()));
        if spans.is_some() {
            self.gen_s.push(gen_ns as f64 / 1e9);
        }
        (cells, inputs)
    }

    /// Sets up again and checks that the same inputs came out.
    fn again(&mut self, args: &Args, spans: Option<&mut Spans>, checks: &mut Checks) {
        let (_, inputs) = self.generate(args, spans);
        checks.benchmark(inputs == self.inputs, "set-up generated different inputs");
    }
}

/// One pass over every cell: per-cell host seconds and outcomes.
struct Pass {
    cell_s: Vec<f64>,
    outcomes: Vec<Outcome>,
}

/// Each cell's fastest host time over a run's passes.
///
/// Contention from other work on the host only ever adds time, and it
/// comes in phases seconds long, so the median pass of a run still moves
/// by about ±30% between runs on a shared host. A cell's fastest
/// repetition is the stable estimate of what the cell itself costs.
fn fastest(passes: &[Pass]) -> Vec<f64> {
    let cells = passes.first().map_or(0, |p| p.cell_s.len());
    (0..cells)
        .map(|i| {
            passes
                .iter()
                .map(|p| p.cell_s[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Simulates every cell once. Only `Simulation::new(..).run_trace(..)` is
/// timed; cloning the input and reducing the report are not. `visit` sees
/// each report before it is dropped.
fn pass(
    setup: &Setup,
    observe: bool,
    mut spans: Option<&mut Spans>,
    mut visit: impl FnMut(usize, &RunReport),
) -> Pass {
    let root = spans.as_mut().map(|s| s.open("bench", "pass", None));
    let mut cell_s = Vec::with_capacity(setup.cells.len());
    let mut outcomes = Vec::with_capacity(setup.cells.len());
    for (i, cell) in setup.cells.iter().enumerate() {
        let input = setup.inputs[i].clone();
        let span = spans.as_mut().map(|s| s.open("system", "run_trace", root));
        let start = Instant::now();
        let report = cell.simulation(observe).run_trace(input);
        cell_s.push(secs(start.elapsed()));
        if let (Some(s), Some(id)) = (spans.as_mut(), span) {
            s.close(id);
        }
        outcomes.push(Outcome::of(&report));
        visit(i, &report);
    }
    if let (Some(s), Some(id)) = (spans, root) {
        s.close(id);
    }
    Pass { cell_s, outcomes }
}

/// Repeats set-up and a pass until `budget` has elapsed and at least
/// [`MIN_PASSES`] ran. The first pass's outcomes are the reference; every
/// later pass must reproduce them exactly.
fn repeat(
    args: &Args,
    setup: &mut Setup,
    budget: Duration,
    mut spans: Option<&mut Spans>,
    checks: &mut Checks,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        setup.again(args, spans.as_deref_mut(), checks);
        let p = pass(setup, false, spans.as_deref_mut(), |_, _| {});
        if let Some(reference) = passes.first() {
            for (i, (a, b)) in reference.outcomes.iter().zip(&p.outcomes).enumerate() {
                checks.cell(
                    &setup.cells,
                    i,
                    a == b,
                    "outcome differs between repetitions",
                );
            }
        }
        passes.push(p);
    }
    passes
}

/// Per-cell output checks on the reference outcomes.
fn check_outputs(setup: &Setup, outcomes: &[Outcome], checks: &mut Checks) {
    for (i, (cell, o)) in setup.cells.iter().zip(outcomes).enumerate() {
        let input = &setup.inputs[i];
        let generated = input.len() as u64;
        let blocks: u64 = input.iter().map(|r| u64::from(r.kind.blocks())).sum();
        let cells = &setup.cells;
        checks.cell(
            cells,
            i,
            o.requests == generated,
            "completed requests != generated",
        );
        checks.cell(
            cells,
            i,
            o.latency_samples as u64 == generated,
            "latency samples != generated",
        );
        checks.cell(
            cells,
            i,
            o.blocks == blocks,
            "delivered blocks != generated",
        );
        if let Some(twin) = cell.twin {
            // Security delays requests, so their summed latency never
            // drops. The makespan is not monotone in those delays: under
            // closed-loop pacing a delayed request can clear contention
            // for the last one, and the secure cell then finishes a few
            // cycles early. It is held to the 1% tolerance the
            // repository's own scheme-ordering test allows for such
            // scheduling bifurcations, and every inversion is printed.
            let t = &outcomes[twin];
            checks.cell(
                cells,
                i,
                o.sum_latency >= t.sum_latency,
                &format!(
                    "secure cell's summed request latency {} is below its unsecure twin's {}",
                    o.sum_latency, t.sum_latency
                ),
            );
            let (secure, unsecure) = (o.total_cycles, t.total_cycles);
            checks.cell(
                cells,
                i,
                secure as f64 >= unsecure as f64 * (1.0 - MAKESPAN_TOLERANCE),
                &format!(
                    "secure cell took {secure} cycles, more than 1% below its unsecure twin's {unsecure}"
                ),
            );
            if secure < unsecure {
                println!(
                    "makespan inversion: {}: {secure} cycles against the twin's {unsecure} \
                     (summed latency {} against {})",
                    cell.label, o.sum_latency, t.sum_latency
                );
            }
        }
        if cell.armed() {
            checks.cell(
                cells,
                i,
                o.faults_detected == o.faults_injected,
                "detected != injected",
            );
            if cell.config.adversary.rate_permille == 0 {
                checks.cell(
                    cells,
                    i,
                    o.false_positives == 0,
                    "false positive at 0 permille",
                );
            }
        }
    }
}

/// Pre-generated traces fed to `run_trace` must reproduce
/// `run_for_requests` bit for bit on every closed-loop cell: moving
/// generation into set-up does not change the program being measured.
fn check_equivalence(setup: &Setup, outcomes: &[Outcome], checks: &mut Checks) -> usize {
    let mut compared = 0;
    for (i, cell) in setup.cells.iter().enumerate() {
        if let Some(per_gpu) = cell.closed_requests() {
            let direct = Outcome::of(&cell.simulation(false).run_for_requests(per_gpu));
            checks.cell(
                &setup.cells,
                i,
                direct == outcomes[i],
                "run_trace differs from run_for_requests",
            );
            compared += 1;
        }
    }
    compared
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn geomean(ratios: &[f64]) -> f64 {
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// The model metrics over the secure cells of the reference pass.
fn model_metrics(setup: &Setup, outcomes: &[Outcome]) -> Vec<Metric> {
    let mut slowdown = Vec::new();
    let mut p99 = Vec::new();
    let mut traffic = Vec::new();
    let (mut hidden, mut pads) = (0u64, 0u64);
    for (cell, o) in setup.cells.iter().zip(outcomes) {
        if let Some(twin) = cell.twin {
            let t = &outcomes[twin];
            slowdown.push(o.total_cycles as f64 / t.total_cycles as f64);
            traffic.push(o.traffic.total().as_u64() as f64 / t.traffic.total().as_u64() as f64);
            p99.push(o.p99_latency);
            for dir in [Direction::Send, Direction::Recv] {
                hidden += o.otp.count(dir, PadClass::Hit);
                pads += o.otp.total(dir);
            }
        }
    }
    vec![
        metric("model_slowdown", geomean(&slowdown), "ratio"),
        metric("model_traffic_ratio", geomean(&traffic), "ratio"),
        // Geomean over cells of each cell's p99: a pooled p99 is set by
        // the few cells with the longest backlog, which the seed moves.
        metric("model_p99_cycles", geomean(&p99), "cycles"),
        metric(
            "model_pad_hidden_frac",
            hidden as f64 / pads as f64,
            "ratio",
        ),
    ]
}

/// Percentiles of the cells' fastest host times, with the sample count
/// and how many samples lie beyond p90.
fn cell_metrics(fastest: &[f64]) -> Vec<Metric> {
    let mut ms: Vec<f64> = fastest.iter().map(|s| s * 1e3).collect();
    let p50 = percentile(&mut ms, 50.0);
    let p90 = percentile(&mut ms, 90.0);
    let beyond = ms.iter().filter(|&&v| v > p90).count();
    println!("cell_ms samples: {} cells, {beyond} beyond p90", ms.len());
    vec![
        metric("cell_ms_p50", p50, "ms"),
        metric("cell_ms_p90", p90, "ms"),
    ]
}

fn print_walls(what: &str, passes: &[Pass]) {
    let walls: Vec<f64> = passes.iter().map(|p| p.cell_s.iter().sum()).collect();
    println!("{what} pass walls (s): {walls:.4?}");
}

fn run(args: &Args) -> RunResult {
    print_provenance(args);
    let mut checks = Checks {
        cell_failed: Vec::new(),
        benchmark_errors: 0,
    };
    let mut spans = args.trace.then(Spans::new);
    let mut setup = Setup::new(args, spans.as_mut());
    checks.cell_failed = vec![false; setup.cells.len()];
    let n = setup.cells.len();
    println!(
        "workload {}: {n} cells, {} requests, seed {}",
        args.workload.name(),
        setup.inputs.iter().map(Vec::len).sum::<usize>(),
        args.seed
    );

    // Untraced passes: the end-to-end measurement (half the budget when
    // a traced run follows).
    let budget = Duration::from_secs(args.seconds);
    let untraced_budget = if args.trace { budget / 2 } else { budget };
    let untraced = repeat(args, &mut setup, untraced_budget, None, &mut checks);
    let reference = untraced[0].outcomes.clone();
    check_outputs(&setup, &reference, &mut checks);
    let compared = check_equivalence(&setup, &reference, &mut checks);
    println!("equivalence: {compared} closed-loop cells compared with run_for_requests");
    let times = fastest(&untraced);
    print_walls("untraced", &untraced);

    let metrics = if args.trace {
        let spans = spans.as_mut().expect("traced run records spans");
        layer_metrics(
            args,
            &mut setup,
            &reference,
            times.iter().sum(),
            spans,
            &mut checks,
        )
    } else {
        let mut m = vec![
            metric("setup_s", median(&setup.setup_s), "s"),
            metric("wall_s", times.iter().sum(), "s"),
        ];
        m.extend(cell_metrics(&times));
        m.push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
        m.push(metric(
            "pass_rate",
            1.0 - checks.failed() as f64 / n as f64,
            "ratio",
        ));
        m.extend(model_metrics(&setup, &reference));
        m
    };
    for m in &metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let failed = checks.failed();
    RunResult {
        correct: failed == 0
            && checks.benchmark_errors == 0
            && metrics.iter().all(|m| m.value.is_finite()),
        attempted: n,
        failed,
        metrics,
    }
}

/// The traced run: span-timed passes, one observed pass for the
/// program's timeline, then the layer replays. Every replay's operation
/// count is calibrated against the engine's count for the same cells.
#[allow(clippy::too_many_lines)]
fn layer_metrics(
    args: &Args,
    setup: &mut Setup,
    reference: &[Outcome],
    untraced_wall: f64,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Vec<Metric> {
    let budget = Duration::from_secs(args.seconds) / 2;
    let traced = repeat(args, setup, budget, Some(spans), checks);
    let setup = &*setup;
    let cells = &setup.cells;
    for (i, o) in traced[0].outcomes.iter().enumerate() {
        checks.cell(
            cells,
            i,
            *o == reference[i],
            "traced outcome differs from untraced",
        );
    }
    let traced_times = fastest(&traced);
    let run_s: f64 = traced_times.iter().sum();
    print_walls("traced", &traced);

    // Observed pass: the program's own timeline, which must not change
    // any modelled outcome.
    let (mut depth, mut horizon, mut occupancy) = (Vec::new(), Vec::new(), Vec::new());
    let observed = pass(setup, true, None, |_, r| {
        if let Some(t) = &r.timeline {
            for f in &t.fabric {
                depth.push(f.queue_depth as f64);
                horizon.push(f.busy_horizon as f64);
                occupancy.push(f.data_vc_occupancy as f64);
            }
        }
    });
    for (i, o) in observed.outcomes.iter().enumerate() {
        checks.cell(
            cells,
            i,
            o.modelled() == reference[i].modelled(),
            "observed outcome differs",
        );
    }

    let (mut armed_s, mut harness_s) = (0.0, 0.0);
    for (i, cell) in cells.iter().enumerate() {
        if let Some(unarmed) = cell.unarmed {
            armed_s += traced_times[i];
            harness_s += traced_times[i] - traced_times[unarmed];
        }
    }

    let costs = replays(setup, reference, args.seed, spans, checks);

    for t in spans.summary() {
        println!(
            "span {}.{}: {} spans, total {:.6} s, self {:.6} s",
            t.layer,
            t.name,
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }

    let secure: Vec<&Outcome> = cells
        .iter()
        .zip(reference)
        .filter(|(c, _)| c.secure())
        .map(|(_, o)| o)
        .collect();
    let sum = |f: &dyn Fn(&Outcome) -> u64| secure.iter().map(|o| f(o)).sum::<u64>();
    let pads_of = |class| {
        sum(&|o| o.otp.count(Direction::Send, class) + o.otp.count(Direction::Recv, class)) as f64
    };
    let pad_total = sum(&|o| o.otp.total(Direction::Send) + o.otp.total(Direction::Recv)) as f64;
    let batching: Vec<f64> = cells
        .iter()
        .zip(reference)
        .filter(|(c, _)| c.batching())
        .map(|(_, o)| f64::from_bits(o.batch_occupancy_bits))
        .collect();
    let events: u64 = reference.iter().map(|o| o.events).sum();
    let requests: u64 = reference.iter().map(|o| o.requests).sum();
    let blocks: u64 = reference.iter().map(|o| o.blocks).sum();
    vec![
        metric("workloads.gen_s", median(&setup.gen_s), "s"),
        metric("workloads.requests", requests as f64, "count"),
        metric("system.run_s", run_s, "s"),
        metric("system.events", events as f64, "count"),
        metric("system.ns_per_event", run_s * 1e9 / events as f64, "ns"),
        metric(
            "system.events_per_request",
            events as f64 / requests as f64,
            "ratio",
        ),
        metric(
            "secure.scheme_ns_per_block",
            costs.scheme_ns_per_block,
            "ns",
        ),
        metric(
            "secure.batcher_ns_per_block",
            costs.batcher_ns_per_block,
            "ns",
        ),
        metric(
            "secure.pads_issued",
            sum(&|o| o.pads_issued) as f64,
            "count",
        ),
        metric(
            "secure.pad_hit_frac",
            pads_of(PadClass::Hit) / pad_total,
            "ratio",
        ),
        metric(
            "secure.pad_partial_frac",
            pads_of(PadClass::Partial) / pad_total,
            "ratio",
        ),
        metric(
            "secure.pad_miss_frac",
            pads_of(PadClass::Miss) / pad_total,
            "ratio",
        ),
        metric(
            "secure.exposed_pad_cycles",
            sum(&|o| o.otp.exposed_cycles(Direction::Send) + o.otp.exposed_cycles(Direction::Recv))
                as f64,
            "cycles",
        ),
        metric("secure.acks_sent", sum(&|o| o.acks_sent) as f64, "count"),
        metric(
            "secure.batch_occupancy",
            batching.iter().sum::<f64>() / batching.len() as f64,
            "blocks",
        ),
        metric(
            "secure.metadata_bytes",
            sum(&|o| o.traffic.metadata().as_u64()) as f64,
            "bytes",
        ),
        metric(
            "secure.faults_injected",
            sum(&|o| o.faults_injected) as f64,
            "count",
        ),
        metric(
            "secure.faults_detected",
            sum(&|o| o.faults_detected) as f64,
            "count",
        ),
        metric(
            "secure.false_positives",
            sum(&|o| o.false_positives) as f64,
            "count",
        ),
        metric("crypto.blocks", costs.armed_blocks as f64, "count"),
        metric("crypto.seal_ns_per_block", costs.seal_ns_per_block, "ns"),
        metric("crypto.open_ns_per_block", costs.open_ns_per_block, "ns"),
        metric(
            "crypto.harness_share",
            if armed_s > 0.0 {
                harness_s / armed_s
            } else {
                0.0
            },
            "ratio",
        ),
        metric("sim.queue_ns_per_op", costs.queue_ns_per_op, "ns"),
        metric("sim.fabric_ns_per_hop", costs.fabric_ns_per_hop, "ns"),
        metric(
            "sim.mean_hops",
            costs.route_hops as f64 / blocks as f64,
            "hops",
        ),
        metric("sim.queue_depth_p90", percentile(&mut depth, 90.0), "count"),
        metric(
            "sim.busy_horizon_p90",
            percentile(&mut horizon, 90.0),
            "cycles",
        ),
        metric(
            "sim.data_vc_occupancy_p90",
            percentile(&mut occupancy, 90.0),
            "count",
        ),
        metric("trace.overhead_ratio", run_s / untraced_wall, "ratio"),
    ]
}

/// Host costs per operation measured by the layer replays.
struct ReplayCosts {
    scheme_ns_per_block: f64,
    batcher_ns_per_block: f64,
    seal_ns_per_block: f64,
    open_ns_per_block: f64,
    queue_ns_per_op: f64,
    fabric_ns_per_hop: f64,
    /// Σ blocks × route hops over every cell.
    route_hops: u64,
    /// Blocks the armed cells carried.
    armed_blocks: u64,
}

/// Runs every layer replay over the workload's own request streams and
/// calibrates each against the engine's counts for the same cells.
fn replays(
    setup: &Setup,
    reference: &[Outcome],
    seed: u64,
    spans: &mut Spans,
    checks: &mut Checks,
) -> ReplayCosts {
    let cells = &setup.cells;
    let root = spans.open("bench", "replays", None);
    let streams: Vec<Vec<_>> = setup
        .inputs
        .iter()
        .map(|r| replay::block_stream(r))
        .collect();
    let mut scheme_blocks = 0u64;
    let mut batcher_blocks = 0u64;
    let mut queue_ops = 0u64;
    let mut hop_transmits = 0u64;
    let mut route_hops = 0u64;
    for (i, cell) in cells.iter().enumerate() {
        let o = &reference[i];
        let blocks = &streams[i];
        if cell.secure() {
            let c = replay::scheme(cell, blocks, spans, root);
            checks.benchmark(
                c.blocks == o.blocks
                    && c.send == o.otp.total(Direction::Send)
                    && c.recv == o.otp.total(Direction::Recv),
                &format!(
                    "{}: scheme replay pads differ from the engine's",
                    cell.label
                ),
            );
            scheme_blocks += c.blocks;
        }
        if cell.batching() {
            let added = replay::batcher(cell, blocks, spans, root);
            checks.benchmark(
                added == o.blocks,
                &format!(
                    "{}: batcher replay blocks differ from the engine's",
                    cell.label
                ),
            );
            batcher_blocks += added;
        }
        let ops = replay::queue(cell, o.events, seed, spans, root);
        checks.benchmark(
            ops == o.events,
            &format!(
                "{}: queue replay ops differ from the engine's events",
                cell.label
            ),
        );
        queue_ops += ops;
        let transmits = replay::fabric(cell, blocks, spans, root);
        let (hops, implied) = replay::route_hops(
            cell,
            &setup.inputs[i],
            o.traffic.get(mgpu_sim::link::TrafficClass::Data).as_u64(),
        );
        checks.benchmark(
            transmits == hops && implied == Some(hops),
            &format!(
                "{}: fabric replay made {transmits} hop transmits, routes give {hops}, engine bytes imply {implied:?}",
                cell.label
            ),
        );
        hop_transmits += transmits;
        route_hops += hops;
    }

    // Crypto: the blocks the armed cells carried; a workload without
    // armed cells replays its first secure cell as a reference so the
    // layer's per-block cost is still tracked.
    let armed: Vec<usize> = (0..cells.len()).filter(|&i| cells[i].armed()).collect();
    let crypto_cells = if armed.is_empty() {
        (0..cells.len())
            .filter(|&i| cells[i].secure())
            .take(1)
            .collect()
    } else {
        armed.clone()
    };
    let (mut sealed, mut opened, mut seal_ns, mut open_ns) = (0u64, 0u64, 0u64, 0u64);
    for &i in &crypto_cells {
        match replay::crypto(&cells[i], &streams[i], seed, spans, root) {
            Ok(c) => {
                sealed += c.sealed;
                opened += c.opened;
                seal_ns += c.seal_ns;
                open_ns += c.open_ns;
            }
            Err(e) => checks.benchmark(false, &e),
        }
    }
    let armed_blocks: u64 = armed.iter().map(|&i| reference[i].blocks).sum();
    if !armed.is_empty() {
        checks.benchmark(
            sealed == armed_blocks && opened == armed_blocks,
            &format!(
                "crypto replay sealed {sealed}/opened {opened}, armed cells carried {armed_blocks}"
            ),
        );
    }
    spans.close(root);
    let ns = |layer, name| spans.total_ns(layer, name) as f64;
    ReplayCosts {
        scheme_ns_per_block: ns("secure", "scheme_replay") / scheme_blocks as f64,
        batcher_ns_per_block: ns("secure", "batcher_replay") / batcher_blocks as f64,
        seal_ns_per_block: seal_ns as f64 / sealed as f64,
        open_ns_per_block: open_ns as f64 / opened as f64,
        queue_ns_per_op: ns("sim", "queue_replay") / queue_ops as f64,
        fabric_ns_per_hop: ns("sim", "fabric_replay") / hop_transmits as f64,
        route_hops,
        armed_blocks,
    }
}

/// Standard output of a helper program, or `None` when it cannot run.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Stamps the run with what produced it.
fn print_provenance(args: &Args) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only the checkout the benchmark runs from, not an enclosing repository.
    let rev = std::path::Path::new(".git")
        .exists()
        .then(|| command_output("git", &["rev-parse", "HEAD"]))
        .flatten();
    let dirty = match &rev {
        Some(_) => command_output("git", &["status", "--porcelain"])
            .map_or("unknown".to_string(), |s| (!s.is_empty()).to_string()),
        None => "unknown".to_string(),
    };
    println!(
        "provenance: cpu \"{cpu}\", nproc {nproc}, rustc \"{rustc}\", crypto backend {:?}, \
         git rev {}, dirty {dirty}, workload {}, seed {}, seconds {}, trace {}",
        mgpu_crypto::backend::default_backend(),
        rev.as_deref().unwrap_or("unknown"),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
}
