//! The benchmark's workloads: which simulation cells each one runs, and how
//! every cell's input is generated from the workload seed.
//!
//! A cell is one `(config, benchmark, input)` simulation. Every secure cell
//! is paired with its unsecure twin (same input, no security) so the model
//! metrics can be taken as ratios, and every armed cell of `wire-attack`
//! with its disarmed twin so the harness's own host cost shows.

use mgpu_system::runner::configs;
use mgpu_system::Simulation;
use mgpu_types::{AdversaryConfig, Duration, NodeId, OtpSchemeKind, SystemConfig, TopologyKind};
use mgpu_workloads::{ArrivalProcess, Benchmark, Request, ServingModel, TrafficModel};

/// Remote requests per GPU in each `paper-closed` cell.
const PAPER_REQUESTS: usize = 300;
/// Remote requests per GPU in each `switch-scale` cell.
const SWITCH_REQUESTS: usize = 30;
/// Requests per GPU in each `serving-open` cell.
const SERVING_REQUESTS: usize = 1_200;
/// Remote requests per GPU in each `wire-attack` cell.
const ATTACK_REQUESTS: usize = 900;
/// Independent inputs of `switch-scale`, `serving-open` and `wire-attack`,
/// enough for at least 110 cells each (see `Workload::replicas`).
const SWITCH_REPLICAS: u64 = 7;
const SERVING_REPLICAS: u64 = 5;
const ATTACK_REPLICAS: u64 = 5;

/// Serving destination skew, SLO budget and burst shape, as in the
/// repository's `serving` experiment (which also runs on 4 GPUs).
const SERVING_ZIPF: f64 = 0.9;
const SERVING_SLO: u64 = 1_200;
const BURST_FACTOR: f64 = 8.0;
const MEAN_DWELL: f64 = 2_000.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, fully connected, 4/8/16 GPUs × 17 benchmarks × 4 schemes.
    PaperClosed,
    /// Closed loop on `switch-r4` at 64 and 128 GPUs.
    SwitchScale,
    /// Open-loop serving arrivals on 4 GPUs.
    ServingOpen,
    /// Closed loop on 4 GPUs with the wire adversary armed.
    WireAttack,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperClosed,
        Workload::SwitchScale,
        Workload::ServingOpen,
        Workload::WireAttack,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperClosed => "paper-closed",
            Workload::SwitchScale => "switch-scale",
            Workload::ServingOpen => "serving-open",
            Workload::WireAttack => "wire-attack",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent inputs per cell family. Workloads with few families
    /// draw several, so that one seed's traffic shape does not set the
    /// whole workload's model metrics, and so that every workload has at
    /// least 110 cells: ten or more per-cell times then lie beyond p90.
    fn replicas(self) -> u64 {
        match self {
            Workload::PaperClosed => 1,
            Workload::SwitchScale => SWITCH_REPLICAS,
            Workload::ServingOpen => SERVING_REPLICAS,
            Workload::WireAttack => ATTACK_REPLICAS,
        }
    }

    /// Builds the workload's cells for `seed` (configs and input seeds;
    /// the inputs themselves come from [`Cell::generate`]).
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        let mut cells = Vec::new();
        for r in 0..self.replicas() {
            let seed = seed.wrapping_add(r.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let tag = if self.replicas() > 1 {
                format!("/r{r}")
            } else {
                String::new()
            };
            self.push_replica(&mut cells, seed, &tag);
        }
        cells
    }

    fn push_replica(self, cells: &mut Vec<Cell>, seed: u64, tag: &str) {
        let source = |input| Source { input, seed };
        match self {
            Workload::PaperClosed => {
                for base in [
                    SystemConfig::paper_4gpu(),
                    SystemConfig::paper_8gpu(),
                    SystemConfig::paper_16gpu(),
                ] {
                    for bench in Benchmark::ALL {
                        let input = source(Input::Closed(PAPER_REQUESTS));
                        push_family(cells, &base, bench, input, &closed_schemes(&base), tag);
                    }
                }
            }
            Workload::SwitchScale => {
                for gpus in [64, 128] {
                    let mut base = SystemConfig::paper_4gpu();
                    base.gpu_count = gpus;
                    let base = base.with_topology(TopologyKind::Switch { radix: 4 });
                    for bench in [Benchmark::MatrixTranspose, Benchmark::Spmv] {
                        let input = source(Input::Closed(SWITCH_REQUESTS));
                        push_family(cells, &base, bench, input, &closed_schemes(&base), tag);
                    }
                }
            }
            Workload::ServingOpen => {
                let base = SystemConfig::paper_4gpu();
                let schemes = [
                    ("private-4x", configs::private(&base, 4)),
                    ("dynamic-4x", configs::dynamic(&base, 4)),
                    ("dynamic-load-4x", configs::load_dynamic(&base, 4)),
                    ("batching-4x", configs::batching(&base, 4)),
                    ("batching-deadline-4x", configs::deadline_batching(&base, 4)),
                ];
                for mean_gap in [5.0, 12.0] {
                    for process in [
                        ArrivalProcess::poisson(mean_gap),
                        ArrivalProcess::bursty(mean_gap, BURST_FACTOR, MEAN_DWELL),
                    ] {
                        let input = source(Input::Serving(process, SERVING_REQUESTS));
                        push_family(
                            cells,
                            &base,
                            Benchmark::MatrixTranspose,
                            input,
                            &schemes,
                            tag,
                        );
                    }
                }
            }
            Workload::WireAttack => {
                let base = SystemConfig::paper_4gpu();
                let schemes = closed_schemes(&base);
                for bench in [Benchmark::MatrixTranspose, Benchmark::Spmv] {
                    let input = source(Input::Closed(ATTACK_REQUESTS));
                    let twin = push_family(cells, &base, bench, input, &schemes, tag);
                    for (offset, (label, cfg)) in schemes.iter().enumerate() {
                        for rate in [0, 20, 100] {
                            let mut armed = cfg.clone();
                            armed.adversary = AdversaryConfig::active(rate);
                            // The injection schedule is an input too.
                            armed.adversary.seed ^= seed;
                            cells.push(Cell {
                                label: format!(
                                    "{}/{bench}/{label}/armed-{rate}{tag}",
                                    topo_label(&base)
                                ),
                                config: armed,
                                benchmark: bench,
                                source: input,
                                twin: Some(twin),
                                unarmed: Some(twin + 1 + offset),
                            });
                        }
                    }
                }
            }
        }
    }
}

/// How a cell's requests are generated, and from which seed.
#[derive(Debug, Clone, Copy)]
pub struct Source {
    pub input: Input,
    pub seed: u64,
}

/// The request generator of a cell.
#[derive(Debug, Clone, Copy)]
pub enum Input {
    /// `TrafficModel::generate_for` per GPU, this many requests each.
    Closed(usize),
    /// `ServingModel::generate_all` with this arrival process and count per GPU.
    Serving(ArrivalProcess, usize),
}

/// One simulation of the workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `<gpus>gpu-<topology>/<benchmark>/<scheme>[/<arrivals>][/r<replica>]`.
    pub label: String,
    pub config: SystemConfig,
    pub benchmark: Benchmark,
    pub source: Source,
    /// Index of the unsecure twin (secure cells only).
    pub twin: Option<usize>,
    /// Index of the same cell with the adversary disarmed (armed cells only).
    pub unarmed: Option<usize>,
}

impl Cell {
    pub fn secure(&self) -> bool {
        self.config.security.scheme != OtpSchemeKind::Unsecure
    }

    pub fn armed(&self) -> bool {
        self.config.adversary.enabled
    }

    pub fn batching(&self) -> bool {
        self.secure() && self.config.security.batching.enabled
    }

    /// Requests per GPU of a closed-loop cell (`None` for open loop).
    pub fn closed_requests(&self) -> Option<usize> {
        match self.source.input {
            Input::Closed(per_gpu) => Some(per_gpu),
            Input::Serving(..) => None,
        }
    }

    /// Generates the cell's requests.
    pub fn generate(&self) -> Vec<Request> {
        let (gpus, seed) = (self.config.gpu_count, self.source.seed);
        match self.source.input {
            Input::Closed(per_gpu) => {
                let model = TrafficModel::new(self.benchmark, gpus, seed);
                (1..=gpus)
                    .flat_map(|g| model.generate_for(NodeId::gpu(g), per_gpu))
                    .collect()
            }
            Input::Serving(process, per_gpu) => ServingModel::new(gpus, seed, process)
                .with_zipf(SERVING_ZIPF)
                .with_deadline(Duration::cycles(SERVING_SLO))
                .generate_all(per_gpu),
        }
    }

    /// The cell's simulation; `observe` turns on the program's timeline.
    pub fn simulation(&self, observe: bool) -> Simulation {
        let mut config = self.config.clone();
        config.observability.enabled = observe;
        let sim = Simulation::new(config, self.benchmark, self.source.seed);
        match self.source.input {
            Input::Closed(_) => sim,
            Input::Serving(..) => sim.with_open_loop(),
        }
    }
}

/// The closed-loop scheme axis: the Private baseline, Dynamic OTP, and
/// Dynamic OTP with metadata batching (all at 4× OTP buffers).
fn closed_schemes(base: &SystemConfig) -> Vec<(&'static str, SystemConfig)> {
    vec![
        ("private-4x", configs::private(base, 4)),
        ("dynamic-4x", configs::dynamic(base, 4)),
        ("batching-4x", configs::batching(base, 4)),
    ]
}

fn topo_label(cfg: &SystemConfig) -> String {
    format!("{}gpu-{}", cfg.gpu_count, cfg.topology)
}

fn input_label(input: Input) -> String {
    match input {
        Input::Closed(_) => String::new(),
        Input::Serving(process, _) => {
            let kind = match process {
                ArrivalProcess::Poisson { .. } => "poisson",
                ArrivalProcess::Mmpp { .. } => "bursty",
            };
            format!("/gap{:.0}-{kind}", process.mean_gap())
        }
    }
}

/// Pushes the unsecure twin and then each secure scheme on the same
/// input; returns the twin's index.
fn push_family(
    cells: &mut Vec<Cell>,
    base: &SystemConfig,
    bench: Benchmark,
    source: Source,
    schemes: &[(&str, SystemConfig)],
    tag: &str,
) -> usize {
    let mut unsecure = base.clone();
    unsecure.security.scheme = OtpSchemeKind::Unsecure;
    unsecure.security.batching.enabled = false;
    let twin = cells.len();
    let prefix = format!("{}/{bench}", topo_label(base));
    let suffix = format!("{}{tag}", input_label(source.input));
    cells.push(Cell {
        label: format!("{prefix}/unsecure{suffix}"),
        config: unsecure,
        benchmark: bench,
        source,
        twin: None,
        unarmed: None,
    });
    for (label, config) in schemes {
        cells.push(Cell {
            label: format!("{prefix}/{label}{suffix}"),
            config: config.clone(),
            benchmark: bench,
            source,
            twin: Some(twin),
            unarmed: None,
        });
    }
    twin
}
