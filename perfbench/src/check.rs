//! Correctness checks: golden digests, the exhaustive grid reference of
//! `ladder-explore`, and independent re-evaluations that work for any
//! seed.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};

use cimflow_compiler::{compile_with_options, CompileOptions};
use cimflow_dse::{
    analysis, evaluate_with_search, DseOutcome, EvalService, ExploreReport, SweepSpec,
};
use cimflow_nn::models;
use cimflow_sim::{SimReport, Simulator};

use crate::stats::{fnv1a, report_digest, Rng};
use crate::workloads::{explore_space, Request, Workload};
use crate::Executed;

/// The checked-in per-request digests of one (workload, seed).
pub struct Golden {
    rows: Vec<(String, Vec<u64>)>,
}

/// A golden mismatch: how many failures it counts and why.
pub struct Mismatch {
    pub count: usize,
    pub message: String,
}

fn golden_path(dir: &Path, workload: Workload, seed: u64) -> PathBuf {
    dir.join(format!("{}.seed{seed}.txt", workload.name()))
}

impl Golden {
    /// Loads the digests of `(workload, seed)`, or `None` when none are
    /// checked in for that seed.
    pub fn load(dir: &Path, workload: Workload, seed: u64) -> Result<Option<Golden>, String> {
        let path = golden_path(dir, workload, seed);
        let Ok(text) = std::fs::read_to_string(&path) else { return Ok(None) };
        let mut rows = Vec::new();
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
            let (label, digests) = line
                .split_once('\t')
                .ok_or_else(|| format!("{}: malformed line `{line}`", path.display()))?;
            let digests = digests
                .split_whitespace()
                .map(|d| u64::from_str_radix(d, 16))
                .collect::<Result<Vec<u64>, _>>()
                .map_err(|e| format!("{}: {e}", path.display()))?;
            rows.push((label.to_owned(), digests));
        }
        Ok(Some(Golden { rows }))
    }

    /// Writes the digests of `(workload, seed)`; returns the file path.
    pub fn write(
        dir: &Path,
        workload: Workload,
        seed: u64,
        rows: &[(String, Vec<u64>)],
    ) -> Result<PathBuf, String> {
        let path = golden_path(dir, workload, seed);
        let mut text = format!(
            "# perfbench golden digests: workload {} seed {seed}\n\
             # one row per request: label, then one FNV-1a digest per point's SimReport\n\
             # (or one digest of the whole explore trajectory)\n",
            workload.name()
        );
        for (label, digests) in rows {
            let digests: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
            text.push_str(&format!("{label}\t{}\n", digests.join(" ")));
        }
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }

    /// Compares one request's digests against its golden row.
    pub fn check(&self, index: usize, label: &str, digests: &[u64]) -> Result<(), Mismatch> {
        let Some((golden_label, golden)) = self.rows.get(index) else {
            return Err(Mismatch {
                count: digests.len().max(1),
                message: format!("{label}: no golden row {index}"),
            });
        };
        if golden_label != label {
            return Err(Mismatch {
                count: digests.len().max(1),
                message: format!("request {index} is `{label}`, golden has `{golden_label}`"),
            });
        }
        let differing = golden.iter().zip(digests).filter(|(a, b)| a != b).count()
            + golden.len().abs_diff(digests.len());
        if differing > 0 {
            return Err(Mismatch {
                count: differing,
                message: format!("{label}: {differing} digest(s) differ from the golden file"),
            });
        }
        Ok(())
    }
}

/// Digest of an explore run's whole trajectory: the per-generation
/// stats, the budget spent, every full-fidelity point with its report,
/// and the final frontier.
pub fn trajectory_digest(report: &ExploreReport) -> u64 {
    let mut text = serde_json::to_string(&report.generations).expect("generation stats serialize");
    text.push_str(&format!("|{}|{}|", report.budget_used, report.coarse_evaluated));
    for outcome in &report.outcomes {
        let digest = outcome.evaluation().map_or(0, |e| report_digest(&e.simulation));
        text.push_str(&format!("{}={digest:016x};", outcome.point.label()));
    }
    text.push_str(&format!("{:?}", report.frontier));
    fnv1a(text.as_bytes())
}

/// The exhaustive grid of the explore space: the hypervolume reference
/// and an independent full-fidelity result for every point.
pub struct GridReference {
    references: BTreeMap<String, (u64, f64)>,
    volumes: BTreeMap<String, f64>,
    reports: HashMap<String, SimReport>,
}

impl GridReference {
    pub fn compute(service: &EvalService) -> Result<Self, String> {
        let space: SweepSpec = explore_space();
        let grid = service
            .submit_sweep(&space)
            .map_err(|e| format!("grid reference refused: {e}"))?
            .wait();
        if let Some(failed) = grid.iter().find(|o| o.result.is_err()) {
            return Err(format!("grid reference point {} failed", failed.point.label()));
        }
        let references = analysis::reference_points(&grid, 1.01);
        let volumes = analysis::hypervolume_by_model(&grid, &references);
        let reports = grid
            .iter()
            .filter_map(|o| Some((o.point.label(), o.evaluation()?.simulation.clone())))
            .collect();
        Ok(GridReference { references, volumes, reports })
    }

    /// Per-model frontier hypervolume of `outcomes` over the grid's,
    /// averaged over models (as `fig_explore` reports it).
    pub fn hv_ratio(&self, outcomes: &[DseOutcome]) -> f64 {
        let volumes = analysis::hypervolume_by_model(outcomes, &self.references);
        let ratios: Vec<f64> = self
            .volumes
            .iter()
            .map(|(model, &grid)| if grid > 0.0 { volumes[model] / grid } else { 1.0 })
            .collect();
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
    }
}

/// The outcome of the independent checks.
pub struct Independent {
    /// Points compared against an independently computed result.
    pub independent: usize,
    pub failures: Vec<String>,
}

/// Seed-independent checks on the first pass:
///
/// * sweeps — one seeded point per request is re-evaluated outside the
///   service (`evaluate_with_search`) and must match `==`;
/// * `timing-family` — two seeded replayed points per request are
///   compiled and interpreted afresh and must match `==`;
/// * `ladder-explore` — every full-fidelity outcome must equal the
///   exhaustive grid's result for the same point, the budget must hold,
///   and no frontier may beat the grid's.
pub fn independent(
    workload: Workload,
    seed: u64,
    requests: &[Request],
    first: &[Option<Executed>],
    grid: Option<&GridReference>,
) -> Independent {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(17));
    let mut compared = 0;
    let mut failures = Vec::new();
    for (request, ran) in requests.iter().zip(first) {
        let Some(ran) = ran else { continue };
        match (request, workload) {
            (Request::Sweep(spec), Workload::TimingFamily) => {
                let points = spec.expand().expect("validated at set-up");
                let replayed: Vec<usize> = ran
                    .points
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.replayed)
                    .map(|(i, _)| i)
                    .collect();
                if replayed.is_empty() {
                    failures.push(format!("{}: no point was replayed", request.label()));
                    continue;
                }
                for _ in 0..2 {
                    let index = replayed[rng.below(replayed.len())];
                    let point = &points[index];
                    let arch = point.arch(&spec.base_arch());
                    let model = models::by_name(&point.model.name, point.model.resolution)
                        .expect("request models exist");
                    let options = CompileOptions {
                        strategy: point.strategy,
                        search: point.search,
                        ..CompileOptions::default()
                    };
                    let fresh = compile_with_options(&model, &arch, options)
                        .map_err(|e| e.to_string())
                        .and_then(|c| Simulator::new(&c).run().map_err(|e| e.to_string()));
                    compared += 1;
                    if fresh.ok() != ran.points[index].report {
                        failures.push(format!(
                            "{}: replayed point differs from a fresh interpreter run",
                            point.label()
                        ));
                    }
                }
            }
            (Request::Sweep(spec), _) => {
                let points = spec.expand().expect("validated at set-up");
                let index = rng.below(points.len());
                let point = &points[index];
                let arch = point.arch(&spec.base_arch());
                let model = models::by_name(&point.model.name, point.model.resolution)
                    .expect("request models exist");
                let fresh = evaluate_with_search(&arch, &model, point.strategy, point.search);
                compared += 1;
                let served = ran.points.get(index).and_then(|p| p.report.as_ref());
                if fresh.ok().map(|e| e.simulation).as_ref() != served {
                    failures.push(format!(
                        "{}: service result differs from a direct evaluation",
                        point.label()
                    ));
                }
            }
            (Request::Explore(spec), _) => {
                let grid = grid.expect("ladder-explore computes its grid at set-up");
                let Some(report) = &ran.explore else { continue };
                if report.budget_used > spec.budget {
                    failures.push(format!(
                        "{}: spent {} of budget {}",
                        request.label(),
                        report.budget_used,
                        spec.budget
                    ));
                }
                for outcome in &report.outcomes {
                    let label = outcome.point.label();
                    compared += 1;
                    let ours = outcome.evaluation().map(|e| &e.simulation);
                    if ours != grid.reports.get(&label) {
                        failures.push(format!(
                            "{}: {label} differs from the exhaustive grid",
                            request.label()
                        ));
                    }
                }
                let ratio = grid.hv_ratio(&report.outcomes);
                if !(ratio > 0.0 && ratio <= 1.0 + 1e-9) {
                    failures.push(format!(
                        "{}: hypervolume ratio {ratio} is outside (0, 1]",
                        request.label()
                    ));
                }
            }
        }
    }
    Independent { independent: compared, failures }
}
