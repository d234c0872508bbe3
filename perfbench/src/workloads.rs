//! The four seeded workloads and their request lists.
//!
//! A run is a fixed list of requests drawn from `--seed`. Every seed's
//! list covers the same models and resolution ranges in the same
//! proportions, so runs under different seeds cost about the same.

use cimflow_compiler::Strategy;
use cimflow_dse::{ExploreAlgorithm, ExploreSpec, Fidelity, FidelityLadder, SweepSpec};

use crate::stats::Rng;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Compact models through all three Fig. 5 strategies: DP-compile bound.
    CompactSweep,
    /// Large models across strategies and chip counts: simulator bound.
    ComputeSweep,
    /// One compile configuration times 32 timing-only points: record + replay.
    TimingFamily,
    /// Budgeted `explore()` calls over the multi-chip space.
    LadderExplore,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CompactSweep,
        Workload::ComputeSweep,
        Workload::TimingFamily,
        Workload::LadderExplore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CompactSweep => "compact-sweep",
            Workload::ComputeSweep => "compute-sweep",
            Workload::TimingFamily => "timing-family",
            Workload::LadderExplore => "ladder-explore",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Nominal host seconds of one untraced pass over the request list,
    /// measured on a 2-vCPU x86-64 host. A run makes `--seconds` divided
    /// by this, rounded, passes (at least one): about `--seconds` of work
    /// on that host, and the same work on every build under comparison.
    pub fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::CompactSweep => 16.5,
            Workload::ComputeSweep => 18.0,
            Workload::TimingFamily => 6.0,
            Workload::LadderExplore => 16.0,
        }
    }
}

/// The eight clock frequencies (MHz) of a timing family.
pub const FREQUENCIES_MHZ: [u32; 8] = [200, 400, 600, 800, 1000, 1200, 1400, 1600];
/// The four global-memory-port placements of a timing family.
pub const MEMORY_PORTS: [u32; 4] = [0, 13, 27, 41];
/// `explore()` calls per `ladder-explore` list: every third one runs
/// successive halving, the rest evolutionary search. The split is uneven
/// so the median request falls inside one algorithm's latency range, not
/// in the gap between the two; budgets step through `24..48`, two calls
/// each, so costs spread evenly instead of clustering per budget.
const EXPLORE_REQUESTS: u64 = 48;
/// Resolution of the explore space (the `fig_explore` default).
pub const EXPLORE_RESOLUTION: u32 = 64;

/// One request of a run.
#[derive(Debug, Clone)]
pub enum Request {
    /// A sweep batch submitted through admission control.
    Sweep(SweepSpec),
    /// One `explore()` call.
    Explore(ExploreSpec),
}

impl Request {
    /// Short human-readable description.
    pub fn label(&self) -> String {
        match self {
            Request::Sweep(spec) => {
                let model = &spec.models[0];
                format!("{}@{} x{}", model.name, model.resolution, spec.point_count())
            }
            Request::Explore(spec) => {
                format!("explore {} budget={} seed={}", spec.algorithm, spec.budget, spec.seed)
            }
        }
    }
}

/// The space every `ladder-explore` request searches: the `fig_explore`
/// space plus a timing-only frequency axis so the `replay` rung has work.
pub fn explore_space() -> SweepSpec {
    SweepSpec::new()
        .named("ladder-explore")
        .with_model("vgg19", EXPLORE_RESOLUTION)
        .with_model("resnet18", EXPLORE_RESOLUTION)
        .with_strategies(&[Strategy::DpOptimized])
        .with_chip_counts(&[1, 2, 4, 8])
        .with_mg_sizes(&[2, 4, 8])
        .with_flit_sizes(&[8, 16, 32])
        .with_frequencies_mhz(&[500, 1000])
}

/// `count` input resolutions stratified over `lo..=hi` px: the range is
/// cut into equal strata and the seed draws one resolution in each,
/// rounded down to a multiple of 4 px. Every seed covers the range
/// evenly, so runs under different seeds cost about the same.
fn stratified(rng: &mut Rng, lo: u32, hi: u32, count: u32) -> Vec<u32> {
    let width = f64::from(hi - lo) / f64::from(count);
    (0..count)
        .map(|stratum| {
            let at = f64::from(lo) + (f64::from(stratum) + rng.unit()) * width;
            (at as u32 / 4 * 4).clamp(lo, hi)
        })
        .collect()
}

/// One sweep request per stratified resolution of each `(model, lo, hi,
/// count)` entry, built by `sweep`.
fn sweeps(
    rng: &mut Rng,
    models: &[(&'static str, u32, u32, u32)],
    sweep: impl Fn(&'static str, u32) -> SweepSpec,
) -> Vec<Request> {
    let mut list = Vec::new();
    for &(model, lo, hi, count) in models {
        for resolution in stratified(rng, lo, hi, count) {
            list.push(Request::Sweep(sweep(model, resolution)));
        }
    }
    list
}

/// The request list of one run: a pure function of workload and seed.
///
/// The sweep workloads have 90, 120 and 60 requests: many distinct
/// requests, so resolution strata are narrow and the latency median and
/// tail barely depend on the seed. The model mix is uneven so that
/// the median request falls inside one model's cost range rather than in
/// the gap between two models. The seed draws the resolutions, the
/// explore seeds, and the order of the list.
pub fn requests(workload: Workload, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ ((workload as u64) << 56));
    let mut list: Vec<Request> = match workload {
        Workload::CompactSweep => sweeps(
            &mut rng,
            &[("mobilenetv2", 48, 96, 60), ("efficientnetb0", 48, 96, 30)],
            |model, resolution| {
                SweepSpec::new()
                    .with_model(model, resolution)
                    .with_strategies(&[
                        Strategy::GenericMapping,
                        Strategy::OperatorDuplication,
                        Strategy::DpOptimized,
                    ])
                    .with_mg_sizes(&[4, 8])
                    .with_flit_sizes(&[8, 16])
            },
        ),
        Workload::ComputeSweep => sweeps(
            &mut rng,
            &[("vgg19", 96, 160, 80), ("resnet18", 96, 160, 40)],
            |model, resolution| {
                SweepSpec::new()
                    .with_model(model, resolution)
                    .with_strategies(&[Strategy::GenericMapping, Strategy::DpOptimized])
                    .with_chip_counts(&[1, 2, 4])
                    .with_flit_sizes(&[8, 16])
            },
        ),
        // Larger inputs than the other sweeps, so record + replay dominate
        // a family. VGG19 stops below 224 px: there it fails code
        // validation at the default macro-group size.
        Workload::TimingFamily => sweeps(
            &mut rng,
            &[
                ("vgg19", 128, 200, 24),
                ("resnet18", 160, 224, 20),
                ("mobilenetv2", 128, 160, 8),
                ("efficientnetb0", 128, 160, 8),
            ],
            |model, resolution| {
                // Compact models stay on generic mapping so their compile
                // stays small next to record + replay.
                let strategy = match model {
                    "vgg19" | "resnet18" => Strategy::DpOptimized,
                    _ => Strategy::GenericMapping,
                };
                SweepSpec::new()
                    .with_model(model, resolution)
                    .with_strategies(&[strategy])
                    .with_frequencies_mhz(&FREQUENCIES_MHZ)
                    .with_memory_ports(&MEMORY_PORTS)
            },
        ),
        Workload::LadderExplore => {
            let halving = FidelityLadder::new(vec![
                Fidelity::Analytical,
                Fidelity::CoarseSim(32),
                Fidelity::Replay,
            ])
            .expect("analytical -> coarse32 -> replay is a valid ladder");
            let prescreen = FidelityLadder::new(vec![Fidelity::Analytical])
                .expect("an analytical-only ladder is valid");
            (0..EXPLORE_REQUESTS)
                .map(|index| {
                    let (algorithm, ladder) = if index % 3 == 0 {
                        (ExploreAlgorithm::SuccessiveHalving, halving.clone())
                    } else {
                        (ExploreAlgorithm::Evolutionary, prescreen.clone())
                    };
                    Request::Explore(
                        ExploreSpec::new(explore_space())
                            .with_algorithm(algorithm)
                            .with_ladder(ladder)
                            .with_budget(24 + index / 2)
                            .with_seed(rng.next_u64() % 1_000_000),
                    )
                })
                .collect()
        }
    };
    rng.shuffle(&mut list);
    list
}
