//! The traced run: per-request span recording, direct calls into each
//! layer's public entry points, and the per-layer metrics.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use cimflow_arch::ArchConfig;
use cimflow_compiler::cost::CostModel;
use cimflow_compiler::partition::{dependency_closures, partition_with_strategy};
use cimflow_compiler::{
    compile_with_options, partition_chips, CompileOptions, CondensedGraph, Strategy,
};
use cimflow_dse::{PointSpec, SweepSpec};
use cimflow_nn::models;
use cimflow_obs::{new_track, AttrValue, MetricValue, MetricsRegistry, Tracer};
use cimflow_sim::{ReplayEngine, SimOptions, SimReport, Simulator};

use crate::stats::{bucket_quantile, median};
use crate::workloads::{Request, Workload};
use crate::{execute, Executed};

/// Span capacity of the run's tracer: far above what one traced run
/// records, so nothing is dropped (a drop fails the run).
const TRACE_CAPACITY: usize = 1 << 20;

/// Records the benchmark's own spans: each has an id, a parent id and
/// the id of the request it belongs to.
pub struct SpanLog {
    tracer: Tracer,
    track: u64,
    next_id: u64,
}

/// An open span: its id and start time.
#[derive(Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    request: u64,
    start_us: u64,
}

impl SpanLog {
    fn new(tracer: Tracer) -> Self {
        let track = new_track();
        tracer.set_track_name(track, "perfbench-client");
        SpanLog { tracer, track, next_id: 1 }
    }

    fn open(&mut self, parent: u64, request: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open { id, parent, request, start_us: self.tracer.now_us() }
    }

    fn close(&self, span: Open, name: &str) {
        let end = self.tracer.now_us();
        self.tracer.complete(
            name,
            "perfbench",
            self.track,
            span.start_us,
            end.saturating_sub(span.start_us),
            vec![
                ("span".to_owned(), AttrValue::U64(span.id)),
                ("parent".to_owned(), AttrValue::U64(span.parent)),
                ("request".to_owned(), AttrValue::U64(span.request)),
            ],
        );
    }

    /// Runs `f` under a child span of `parent`; returns its result and
    /// its wall time in microseconds.
    fn time<T>(&mut self, name: &str, parent: Open, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.open(parent.id, parent.request);
        let started = Instant::now();
        let value = f();
        let micros = started.elapsed().as_secs_f64() * 1e6;
        self.close(span, name);
        (value, micros)
    }
}

/// Raw per-layer samples of a traced run.
#[derive(Default)]
pub struct LayerSamples {
    build_us: Vec<f64>,
    frontend_us: Vec<f64>,
    partition_us: Vec<f64>,
    closures: Vec<f64>,
    compile_us: Vec<f64>,
    lower_us: Vec<f64>,
    instructions: Vec<f64>,
    stages: Vec<f64>,
    run_us: Vec<f64>,
    dynamic_instructions: f64,
    record_us: Vec<f64>,
    record_over_run: Vec<f64>,
    trace_ops: Vec<f64>,
    replay_batch_us: Vec<f64>,
    replay_us_per_point: Vec<f64>,
    replay_points: f64,
    lanes: Vec<f64>,
    walks: f64,
    fallback_lanes: f64,
    /// `(record + replay_batch, untraced request latency)` per family, µs.
    record_replay: Vec<(f64, f64)>,
    generations: Vec<f64>,
    generation_us: Vec<f64>,
    rung_evals: BTreeMap<String, Vec<f64>>,
    scout_share: Vec<f64>,
    queue_wait: BTreeMap<u64, u64>,
    eval: BTreeMap<u64, u64>,
    eval_sum_us: f64,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    spans: usize,
    pub failures: Vec<String>,
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Sum of a sample (`+0.0` when empty, unlike `Iterator::sum`).
fn sum(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |total, v| total + v)
}

fn mean(values: &[f64]) -> f64 {
    ratio(sum(values), values.len() as f64)
}

impl LayerSamples {
    /// The per-layer metrics, in the order `BENCHMARK.json` lists them.
    /// Layer times and counts are means per call (per point, per family
    /// or per explore); shares and factors are ratios of sums. A layer a
    /// workload does not exercise reports 0.
    pub fn metrics(
        &self,
        cache_hit_ratio: f64,
        replayed_ratio: f64,
        traces_recorded: f64,
    ) -> Vec<(String, f64, &'static str)> {
        let point_us: f64 = sum(&self.compile_us) + sum(&self.run_us);
        let traced_p50 = median(&self.traced_ms);
        let untraced_p50 = median(&self.untraced_ms);
        let traced_wall_us: f64 = sum(&self.traced_ms) * 1e3;
        let rung = |name: &str| self.rung_evals.get(name).map_or(0.0, |v| mean(v));
        let lanes = sum(&self.lanes);
        let (record_replay, request_us) =
            self.record_replay.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
        let metrics = [
            ("nn.build_us", mean(&self.build_us), "us"),
            ("compiler.frontend_us", mean(&self.frontend_us), "us"),
            ("compiler.partition_us", mean(&self.partition_us), "us"),
            ("compiler.closures", mean(&self.closures), "count"),
            ("compiler.compile_us", mean(&self.compile_us), "us"),
            ("compiler.lower_us", mean(&self.lower_us), "us"),
            ("compiler.instructions", mean(&self.instructions), "count"),
            ("compiler.stages", mean(&self.stages), "count"),
            ("sim.run_us", mean(&self.run_us), "us"),
            ("sim.insts_per_s", ratio(self.dynamic_instructions, sum(&self.run_us) / 1e6), "1/s"),
            ("sim.record_us", mean(&self.record_us), "us"),
            ("sim.record_over_run", mean(&self.record_over_run), "ratio"),
            ("sim.trace_ops", mean(&self.trace_ops), "count"),
            ("sim.replay_batch_us", mean(&self.replay_batch_us), "us"),
            ("sim.replay_us_per_point", mean(&self.replay_us_per_point), "us"),
            ("sim.freq_dedup", ratio(self.replay_points, lanes), "ratio"),
            ("sim.lockstep_lanes", mean(&self.lanes), "count"),
            ("sim.multi_lane_factor", ratio(lanes, self.walks), "ratio"),
            ("sim.lockstep_fallback_ratio", ratio(self.fallback_lanes, lanes), "ratio"),
            ("dse.queue_wait_p50_us", bucket_quantile(&self.queue_wait, 0.5) as f64, "us"),
            ("dse.queue_wait_p99_us", bucket_quantile(&self.queue_wait, 0.99) as f64, "us"),
            ("dse.eval_p50_us", bucket_quantile(&self.eval, 0.5) as f64, "us"),
            ("dse.eval_p99_us", bucket_quantile(&self.eval, 0.99) as f64, "us"),
            (
                "dse.worker_busy_ratio",
                ratio(self.eval_sum_us, crate::WORKERS as f64 * traced_wall_us),
                "ratio",
            ),
            ("dse.cache_hit_ratio", cache_hit_ratio, "ratio"),
            ("dse.replayed_ratio", replayed_ratio, "ratio"),
            ("dse.trace_recorded", traces_recorded, "count"),
            ("explore.generations", mean(&self.generations), "count"),
            ("explore.generation_us", mean(&self.generation_us), "us"),
            ("explore.rung_evals.analytical", rung("analytical"), "count"),
            ("explore.rung_evals.coarse32", rung("coarse32"), "count"),
            ("explore.rung_evals.replay", rung("replay"), "count"),
            ("explore.rung_evals.full", rung("full"), "count"),
            ("explore.scout_share", mean(&self.scout_share), "ratio"),
            ("share.partition_of_point", ratio(sum(&self.partition_us), point_us), "ratio"),
            ("share.sim_run_of_point", ratio(sum(&self.run_us), point_us), "ratio"),
            ("share.record_replay_of_request", ratio(record_replay, request_us), "ratio"),
            ("obs.traced_request_p50_ms", traced_p50, "ms"),
            ("obs.untraced_request_p50_ms", untraced_p50, "ms"),
            ("obs.trace_overhead_ms", traced_p50 - untraced_p50, "ms"),
            ("obs.spans", self.spans as f64, "count"),
        ];
        metrics.into_iter().map(|(name, value, unit)| (name.to_owned(), value, unit)).collect()
    }

    /// Human-readable lines naming each share and lockstep factor with
    /// its base.
    pub fn share_report(&self) -> Vec<String> {
        let compile = sum(&self.compile_us);
        let run = sum(&self.run_us);
        let partition = sum(&self.partition_us);
        let lanes = sum(&self.lanes);
        let (record_replay, request_us) =
            self.record_replay.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
        vec![
            format!(
                "share base: {} point(s), compile {:.0} us + sim.run {:.0} us = {:.0} us; \
                 partition {:.0} us ({:.1} %), sim.run {:.1} %",
                self.compile_us.len(),
                compile,
                run,
                compile + run,
                partition,
                100.0 * ratio(partition, compile + run),
                100.0 * ratio(run, compile + run)
            ),
            format!(
                "record + replay_batch {:.0} us of {:.0} us untraced request wall over {} \
                 famil(ies) ({:.1} %)",
                record_replay,
                request_us,
                self.record_replay.len(),
                100.0 * ratio(record_replay, request_us)
            ),
            format!(
                "sim.record_over_run base: record {:.0} us / sim.run {:.0} us",
                sum(&self.record_us),
                sum(&self.run_us)
            ),
            format!(
                "lockstep: freq dedup {} points / {} lanes, multi-lane {} lanes / {} walks, \
                 fallback {} / {} lanes",
                self.replay_points, lanes, lanes, self.walks, self.fallback_lanes, lanes
            ),
        ]
    }
}

/// State of one traced run.
pub struct TracedRun {
    workload: Workload,
    tracer: Tracer,
    metrics: MetricsRegistry,
    spans: SpanLog,
    samples: LayerSamples,
}

impl TracedRun {
    pub fn new(workload: Workload) -> Self {
        let tracer = Tracer::new(TRACE_CAPACITY);
        TracedRun {
            workload,
            spans: SpanLog::new(tracer.clone()),
            tracer,
            metrics: MetricsRegistry::new(),
            samples: LayerSamples::default(),
        }
    }

    /// Runs one request untraced (the overhead baseline), then traced
    /// through the service, then through the layers directly. Returns
    /// the traced execution.
    pub fn request(&mut self, request: &Request, request_id: u64) -> Executed {
        let untraced = execute(request, request_id, None, None);
        let untraced_us = untraced.latency.as_secs_f64() * 1e6;
        self.samples.untraced_ms.push(untraced_us / 1e3);

        let root = self.spans.open(0, request_id);
        let (traced, _) = self.spans.time("service.request", root, || {
            execute(request, request_id, Some(&self.tracer), Some(&self.metrics))
        });
        self.samples.traced_ms.push(traced.latency.as_secs_f64() * 1e3);
        match (request, self.workload) {
            (Request::Sweep(spec), Workload::TimingFamily) => {
                self.family(spec, root, &traced, untraced_us);
            }
            (Request::Sweep(spec), _) => {
                let points = spec.expand().expect("validated at set-up");
                for (index, point) in points.iter().enumerate() {
                    let expected = traced.points.get(index).and_then(|p| p.report.as_ref());
                    self.point(spec, point, root, expected);
                }
            }
            (Request::Explore(_), _) => {
                if let Some(report) = &traced.explore {
                    self.samples.generations.push(report.generations.len() as f64);
                    for name in ["analytical", "coarse32", "replay", "full"] {
                        let count = report.rung_evaluated.get(name).copied().unwrap_or(0);
                        self.samples
                            .rung_evals
                            .entry(name.to_owned())
                            .or_default()
                            .push(count as f64);
                    }
                    self.samples.scout_share.push(report.scout_share);
                }
            }
        }
        self.spans.close(root, "request");
        traced
    }

    /// The compiler layers of one point: model build, frontend,
    /// partition (chip split plus per-chip partitions on multi-chip
    /// points) and the whole `compile`. Returns the compiled program.
    fn compile(
        &mut self,
        spec: &SweepSpec,
        point: &PointSpec,
        root: Open,
    ) -> Option<cimflow_compiler::CompiledProgram> {
        let arch = point.arch(&spec.base_arch());
        let strategy = point.strategy;
        let (model, build_us) = self
            .spans
            .time("nn.build", root, || models::by_name(&point.model.name, point.model.resolution));
        self.samples.build_us.push(build_us);
        let model = model.expect("request models exist");
        // The same oversized-operator limit `compile` applies.
        let capacity =
            u64::from(arch.chip().core_count) * arch.core.cim_unit.weight_capacity_bytes() * 3 / 4;
        let (condensed, frontend_us) = self.spans.time("compiler.frontend", root, || {
            CondensedGraph::from_graph_with_capacity(&model.graph, capacity)
        });
        let condensed = match condensed {
            Ok(condensed) => condensed,
            Err(e) => {
                self.samples.failures.push(format!("{}: frontend failed: {e}", point.label()));
                return None;
            }
        };
        let cost_model = CostModel::new(&arch);
        let (partitioned, partition_us) = self
            .spans
            .time("compiler.partition", root, || partition(&condensed, &cost_model, strategy));
        if let Err(e) = partitioned {
            self.samples.failures.push(format!("{}: partition failed: {e}", point.label()));
            return None;
        }
        self.samples.closures.push(dependency_closures(&condensed).len() as f64);
        let options =
            CompileOptions { strategy, search: point.search, ..CompileOptions::default() };
        let (compiled, compile_us) = self
            .spans
            .time("compiler.compile", root, || compile_with_options(&model, &arch, options));
        let compiled = match compiled {
            Ok(compiled) => compiled,
            Err(e) => {
                self.samples.failures.push(format!("{}: compile failed: {e}", point.label()));
                return None;
            }
        };
        self.samples.frontend_us.push(frontend_us);
        self.samples.partition_us.push(partition_us);
        self.samples.compile_us.push(compile_us);
        self.samples.lower_us.push((compile_us - frontend_us - partition_us).max(0.0));
        self.samples.instructions.push(compiled.report.total_instructions as f64);
        self.samples.stages.push(compiled.plan.stages.len() as f64);
        Some(compiled)
    }

    /// The compile → simulate layers of one sweep point, checked against
    /// the service's result for the same point.
    fn point(
        &mut self,
        spec: &SweepSpec,
        point: &PointSpec,
        root: Open,
        expected: Option<&SimReport>,
    ) {
        let Some(compiled) = self.compile(spec, point, root) else { return };
        let (report, run_us) = self.spans.time("sim.run", root, || Simulator::new(&compiled).run());
        self.samples.run_us.push(run_us);
        match report {
            Ok(report) => {
                self.samples.dynamic_instructions += report.total_dynamic_instructions() as f64;
                if Some(&report) != expected {
                    self.samples.failures.push(format!(
                        "{}: layer-by-layer run differs from the service",
                        point.label()
                    ));
                }
            }
            Err(e) => self.samples.failures.push(format!("{}: sim.run failed: {e}", point.label())),
        }
    }

    /// The layers of one timing family: compile and interpret its first
    /// point, record its trace, and lockstep-replay every point; each
    /// result is checked against the service's.
    fn family(&mut self, spec: &SweepSpec, root: Open, traced: &Executed, untraced_us: f64) {
        let points = spec.expand().expect("validated at set-up");
        let base = spec.base_arch();
        let expected = |index: usize| traced.points.get(index).and_then(|p| p.report.as_ref());
        let Some(compiled) = self.compile(spec, &points[0], root) else { return };
        let (run, run_us) = self.spans.time("sim.run", root, || Simulator::new(&compiled).run());
        self.samples.run_us.push(run_us);
        let (recorded, record_us) =
            self.spans.time("sim.record", root, || Simulator::record(&compiled));
        let trace = match (run, recorded) {
            (Ok(run), Ok((trace, report))) => {
                self.samples.dynamic_instructions += run.total_dynamic_instructions() as f64;
                if run != report || Some(&run) != expected(0) {
                    self.samples.failures.push(format!(
                        "{}: interpreter, recorder and service disagree",
                        points[0].label()
                    ));
                }
                trace
            }
            _ => {
                self.samples.failures.push(format!("{}: run or record failed", points[0].label()));
                return;
            }
        };
        let batch: Vec<(ArchConfig, SimOptions)> =
            points.iter().map(|p| (p.arch(&base), SimOptions::default())).collect();
        let engine = ReplayEngine::new(&trace);
        let ((reports, stats), replay_us) =
            self.spans.time("sim.replay_batch", root, || engine.replay_batch_stats(&batch));
        for (index, report) in reports.iter().enumerate() {
            if report.as_ref().ok() != expected(index) {
                self.samples.failures.push(format!(
                    "{}: lockstep replay differs from the service",
                    points[index].label()
                ));
            }
        }
        self.samples.record_us.push(record_us);
        self.samples.record_over_run.push(record_us / run_us.max(f64::MIN_POSITIVE));
        self.samples.trace_ops.push(trace.op_count() as f64);
        self.samples.replay_batch_us.push(replay_us);
        self.samples.replay_us_per_point.push(replay_us / points.len() as f64);
        self.samples.replay_points += points.len() as f64;
        self.samples.lanes.push(stats.lanes as f64);
        self.samples.walks += stats.batches as f64;
        self.samples.fallback_lanes += stats.fallback_lanes as f64;
        self.samples.record_replay.push((record_us + replay_us, untraced_us));
    }

    /// Ends the run: folds in the service histograms and the explorer's
    /// generation spans, checks that no span was dropped, and writes the
    /// Chrome JSON trace.
    pub fn finish(mut self, trace_out: Option<&Path>) -> Result<LayerSamples, String> {
        for entry in self.metrics.snapshot().entries {
            let MetricValue::Histogram(histogram) = entry.value else { continue };
            let target = match entry.name.as_str() {
                "service.queue_wait_us" => &mut self.samples.queue_wait,
                "service.eval_latency_us" => {
                    self.samples.eval_sum_us += histogram.sum as f64;
                    &mut self.samples.eval
                }
                _ => continue,
            };
            for (bound, count) in histogram.buckets {
                *target.entry(bound).or_insert(0) += count;
            }
        }
        let events = self.tracer.events();
        self.samples.generation_us = events
            .iter()
            .filter(|e| e.category == "explore" && e.name.starts_with("generation-"))
            .map(|e| e.duration as f64)
            .collect();
        self.samples.spans = events.len();
        let dropped = self.tracer.dropped();
        if dropped > 0 {
            return Err(format!("the tracer dropped {dropped} span(s)"));
        }
        if let Some(path) = trace_out {
            std::fs::write(path, self.tracer.to_chrome_json())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(self.samples)
    }
}

/// The CG-level partition `compile` runs for one point: the per-chip
/// partition on one chip; the chip split plus every non-empty chip's
/// partition on several.
fn partition(
    condensed: &CondensedGraph,
    cost_model: &CostModel,
    strategy: Strategy,
) -> Result<(), cimflow_compiler::CompileError> {
    if cost_model.arch().chip_count() <= 1 {
        return partition_with_strategy(condensed, cost_model, strategy).map(drop);
    }
    let system = partition_chips(condensed, cost_model);
    for chip in 0..system.chip_count {
        let (subgraph, _) = condensed.chip_subgraph(&system.assignment, chip);
        if !subgraph.is_empty() {
            partition_with_strategy(&subgraph, cost_model, strategy)?;
        }
    }
    Ok(())
}
