//! Schedulable jobs and their outcomes: what the [`EvalService`] queues
//! and what its handles hand back.
//!
//! [`JobBuilder`] is the one place a point's `(name, resolution)`
//! resolves to a model and a point gets its serving workload: sweep
//! expansion ([`expand_jobs`]), single wire requests, the explorer's
//! generations and the fidelity ladder's priced projections all build
//! their jobs through it. A model the zoo cannot build stays inside the
//! job as a per-point error, so it never aborts a sweep.
//!
//! [`EvalService`]: crate::EvalService

use std::collections::HashMap;
use std::sync::Arc;

use cimflow_arch::ArchConfig;
use cimflow_nn::{models, Model};
use cimflow_traffic::WorkloadSpec;

use crate::eval::{served_model_name, TrafficJob};
use crate::{traffic_fingerprint, CacheKey, DseError, Evaluation, ModelSpec, PointSpec, SweepSpec};

/// One schedulable unit: a resolved design point.
///
/// The model is behind an `Arc` so that the hundreds of points sharing a
/// model do not clone its graph; `model` is an `Err` when the zoo cannot
/// build the point's model (the service turns that into a per-point
/// error outcome).
#[derive(Debug, Clone)]
pub struct Job {
    /// The descriptive point.
    pub spec: PointSpec,
    /// The concrete architecture of the point.
    pub arch: ArchConfig,
    /// The resolved model, or the resolution error.
    pub model: Result<Arc<Model>, DseError>,
    /// The serving workload of the point (shared across the grid);
    /// `None` when the sweep has no traffic section.
    pub traffic: Option<Arc<TrafficJob>>,
}

impl Job {
    /// The serving workload this job actually runs: present only when a
    /// traffic section was attached **and** the point offers load.
    pub(crate) fn active_traffic(&self) -> Option<&Arc<TrafficJob>> {
        self.traffic.as_ref().filter(|_| self.spec.offered_qps > 0)
    }

    /// The content cache key of the job (`None` for unresolvable
    /// models). Includes the serving-workload fingerprint, so a point
    /// evaluated under load never answers (or is answered by) the same
    /// design evaluated idle or at a different rate.
    pub(crate) fn cache_key(&self) -> Option<CacheKey> {
        let model = self.model.as_ref().ok()?;
        let key = CacheKey::of(&self.arch, model, self.spec.strategy, self.spec.search);
        Some(match self.active_traffic() {
            Some(traffic) => key.with_traffic(traffic_fingerprint(
                self.spec.offered_qps,
                &traffic.workload,
                &traffic.colocated,
            )),
            None => key,
        })
    }
}

/// The outcome of one grid point: the point description plus either its
/// evaluation or the error that stopped it.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    /// Which design point this is.
    pub point: PointSpec,
    /// The evaluation, or the per-point failure.
    pub result: Result<Evaluation, DseError>,
    /// Whether the result came out of the evaluation cache.
    pub cached: bool,
}

impl DseOutcome {
    /// The evaluation if the point succeeded.
    pub fn evaluation(&self) -> Option<&Evaluation> {
        self.result.as_ref().ok()
    }
}

/// A progress event, delivered once per finished point (in completion
/// order, possibly from multiple threads).
#[derive(Debug, Clone)]
pub struct Progress {
    /// Points finished so far (including this one).
    pub completed: usize,
    /// Total points of the sweep.
    pub total: usize,
    /// Index of the finished point in grid order.
    pub index: usize,
    /// Label of the finished point.
    pub label: String,
    /// Whether the point succeeded.
    pub ok: bool,
    /// Whether the result was served from the cache.
    pub cached: bool,
}

/// Builds [`Job`]s from points. Each distinct `(name, resolution)`
/// resolves once per builder (a `HashMap`, so a 10k-point grid does not
/// pay a linear scan per point), and every point serving the same models
/// shares one [`TrafficJob`].
#[derive(Debug)]
pub(crate) struct JobBuilder {
    base: ArchConfig,
    /// The serving workload preset, when points serve traffic.
    workload: Option<WorkloadSpec>,
    /// Under co-location every point serves the whole model axis.
    colocated: Option<Arc<TrafficJob>>,
    models: HashMap<(String, u32), Result<Arc<Model>, DseError>>,
    solo: HashMap<(String, u32), Arc<TrafficJob>>,
}

impl JobBuilder {
    /// A builder for points on `base` that serve no traffic.
    pub(crate) fn new(base: ArchConfig) -> Self {
        JobBuilder {
            base,
            workload: None,
            colocated: None,
            models: HashMap::new(),
            solo: HashMap::new(),
        }
    }

    /// A builder for the points of `space`. Its traffic section is
    /// validated once: the mix (when set) must match the served-model
    /// count, which is the whole model axis under co-location and 1
    /// otherwise. Under co-location the model axis resolves up front, so
    /// an unresolvable colocated model is a spec-level error and never a
    /// silently shrunken mix.
    ///
    /// # Errors
    ///
    /// [`DseError::Spec`] for an unusable workload, or the resolution
    /// error of a colocated model.
    pub(crate) fn for_space(space: &SweepSpec) -> Result<Self, DseError> {
        let mut builder = JobBuilder::new(space.base_arch());
        if let Some(traffic) = &space.traffic {
            let served = if traffic.colocate { space.models.len() } else { 1 };
            traffic.workload.validate(served).map_err(|e| DseError::spec(e.to_string()))?;
            if traffic.colocate {
                let mut colocated = Vec::with_capacity(space.models.len());
                for m in &space.models {
                    colocated.push((served_model_name(&m.name, m.resolution), builder.model(m)?));
                }
                builder.colocated =
                    Some(Arc::new(TrafficJob { workload: traffic.workload.clone(), colocated }));
            }
            builder.workload = Some(traffic.workload.clone());
        }
        Ok(builder)
    }

    /// Every point serves `workload`, each with only its own model.
    pub(crate) fn serving(mut self, workload: WorkloadSpec) -> Self {
        self.workload = Some(workload);
        self
    }

    /// The zoo model of `spec`, built once per builder.
    fn model(&mut self, spec: &ModelSpec) -> Result<Arc<Model>, DseError> {
        self.models
            .entry((spec.name.clone(), spec.resolution))
            .or_insert_with(|| {
                models::by_name(&spec.name, spec.resolution).map(Arc::new).map_err(DseError::from)
            })
            .clone()
    }

    /// The job of `point`.
    pub(crate) fn job(&mut self, point: PointSpec) -> Job {
        let model = self.model(&point.model);
        let traffic = match (&self.workload, &model) {
            (None, _) => None,
            (Some(_), _) if self.colocated.is_some() => self.colocated.clone(),
            (Some(workload), Ok(resolved)) => Some(
                self.solo
                    .entry((point.model.name.clone(), point.model.resolution))
                    .or_insert_with(|| {
                        Arc::new(TrafficJob {
                            workload: workload.clone(),
                            colocated: vec![(
                                served_model_name(&point.model.name, point.model.resolution),
                                Arc::clone(resolved),
                            )],
                        })
                    })
                    .clone(),
            ),
            // The point fails on model resolution anyway.
            (Some(_), Err(_)) => None,
        };
        let arch = point.arch(&self.base);
        Job { spec: point, arch, model, traffic }
    }
}

/// Expands a spec into concrete jobs in grid order, resolving each
/// distinct model once; a model the zoo cannot build stays inside its
/// jobs as a per-point error.
///
/// # Errors
///
/// Returns [`DseError::Spec`] when the spec expands to an empty grid or
/// its traffic section is unusable.
pub fn expand_jobs(spec: &SweepSpec) -> Result<Vec<Job>, DseError> {
    let points = spec.expand()?;
    let mut builder = JobBuilder::for_space(spec)?;
    Ok(points.into_iter().map(|point| builder.job(point)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvalCache, EvalService, ServiceConfig};
    use cimflow_compiler::Strategy;
    use cimflow_obs::{MetricsRegistry, Tracer};

    fn small_spec() -> SweepSpec {
        SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_mg_sizes(&[4, 8])
            .with_flit_sizes(&[8, 16])
    }

    /// One sweep on a fresh `workers`-thread service over `cache`.
    fn run(spec: &SweepSpec, workers: usize, cache: &EvalCache) -> Vec<DseOutcome> {
        let config = ServiceConfig::new().with_workers(workers);
        EvalService::with_cache(config, cache.clone()).submit_sweep(spec).unwrap().wait()
    }

    #[test]
    fn outcomes_follow_grid_order_and_progress_counts() {
        let service = EvalService::new(ServiceConfig::new().with_workers(4));
        let mut seen = Vec::new();
        let outcomes = service
            .submit_sweep(&small_spec())
            .unwrap()
            .wait_with(|p: &Progress| seen.push((p.completed, p.total)));
        assert_eq!(outcomes.len(), 4);
        let mg: Vec<u64> = outcomes.iter().map(|o| o.point.mg_size).collect();
        assert_eq!(mg, vec![4, 8, 4, 8], "grid order is independent of completion order");
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        assert_eq!(seen.len(), 4);
        assert!(seen.iter().all(|(_, total)| *total == 4));
        let mut counts: Vec<usize> = seen.iter().map(|(done, _)| *done).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 2, 3, 4]);
    }

    #[test]
    fn invalid_points_are_reported_not_fatal() {
        // mg size 0 is an invalid configuration; the model axis also
        // contains an unknown model and one the zoo cannot build at 0 px.
        // None of them may sink the sweep.
        let spec = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_model("not-a-model", 32)
            .with_model("resnet18", 0)
            .with_strategies(&[Strategy::GenericMapping])
            .with_mg_sizes(&[8, 0]);
        let outcomes = run(&spec, 1, &EvalCache::new());
        assert_eq!(outcomes.len(), 6);
        assert!(outcomes[0].result.is_ok());
        assert!(matches!(outcomes[1].result, Err(DseError::Arch(_))));
        assert!(matches!(outcomes[2].result, Err(DseError::UnknownModel { .. })));
        assert!(matches!(outcomes[3].result, Err(DseError::UnknownModel { .. })));
        assert!(matches!(outcomes[4].result, Err(DseError::Model(_))));
        assert!(matches!(outcomes[5].result, Err(DseError::Model(_))));
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree() {
        let spec = small_spec();
        let sequential = run(&spec, 1, &EvalCache::new());
        let parallel = run(&spec, 8, &EvalCache::new());
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.point, p.point);
            let (s, p) = (s.evaluation().unwrap(), p.evaluation().unwrap());
            assert_eq!(s.simulation.total_cycles, p.simulation.total_cycles);
            assert!((s.simulation.energy.total_pj() - p.simulation.energy.total_pj()).abs() < 1e-6);
            assert_eq!(s.compilation, p.compilation);
        }
    }

    #[test]
    fn shared_cache_makes_rerun_free_of_recompilation() {
        let cache = EvalCache::new();
        let spec = small_spec();
        let cold = run(&spec, 2, &cache);
        assert!(cold.iter().all(|o| !o.cached), "first run must evaluate everything");
        let warm = run(&spec, 2, &cache);
        assert!(warm.iter().all(|o| o.cached), "warm run must be 100% cache hits");
        let stats = cache.stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 4);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn chip_count_sweeps_run_end_to_end() {
        let spec = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::DpOptimized])
            .with_chip_counts(&[1, 2]);
        let outcomes = run(&spec, 2, &EvalCache::new());
        assert_eq!(outcomes.len(), 2);
        let single = outcomes[0].evaluation().unwrap();
        let dual = outcomes[1].evaluation().unwrap();
        assert_eq!(single.simulation.chip_count, 1);
        assert_eq!(dual.simulation.chip_count, 2);
        assert_eq!(dual.arch.total_cores(), 128);
        assert!(dual.simulation.energy.interchip_pj > 0.0);
        assert_eq!(single.simulation.energy.interchip_pj, 0.0);
    }

    #[test]
    fn services_feed_a_shared_registry_and_tracer() {
        let registry = MetricsRegistry::new();
        let tracer = Tracer::new(4096);
        let cache = EvalCache::new();
        for _ in 0..2 {
            let config = ServiceConfig::new()
                .with_workers(2)
                .with_metrics(registry.clone())
                .with_tracer(tracer.clone());
            EvalService::with_cache(config, cache.clone())
                .submit_sweep(&small_spec())
                .unwrap()
                .wait();
        }
        // Both sweeps (8 points, 4 warm) count into the one registry,
        // even though each ran on its own service.
        let snapshot = registry.snapshot();
        match snapshot.get("service.evals_completed", &[]) {
            Some(cimflow_obs::MetricValue::Counter(n)) => assert_eq!(*n, 8),
            other => panic!("expected a completion counter, got {other:?}"),
        }
        let evals = tracer.events().iter().filter(|e| e.name == "eval").count();
        assert_eq!(evals, 8, "every point leaves an eval span, cached or not");
    }

    #[test]
    fn duplicate_models_resolve_once() {
        let jobs = expand_jobs(&small_spec()).unwrap();
        let first = jobs[0].model.as_ref().unwrap();
        assert!(jobs[1..].iter().all(|job| Arc::ptr_eq(first, job.model.as_ref().unwrap())));
    }
}
