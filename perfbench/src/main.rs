//! `perfbench`: the CIMFlow design-space benchmark.
//!
//! One client thread drives a closed loop with one request in flight
//! against the public `EvalService` / `explore` API of `cimflow-dse`.
//! Each request gets a fresh two-worker service, so it starts with an
//! empty `EvalCache` and `TraceStore`. A run replays a fixed, seeded
//! request list a fixed number of whole passes, chosen from `--seconds`
//! and the workload's nominal pass time (never from how fast the build
//! under test runs), checks every simulated result, and prints a
//! human-readable report on stderr and one JSON result line on stdout.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` is a separate
//! run over the first `TRACED_REQUESTS` requests that also calls each
//! layer's public entry points from this crate, records the benchmark's
//! spans with `cimflow-obs`, writes them as Chrome JSON to `--trace-out`,
//! and reports the per-layer metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! perfbench --workload <name> --seed <n> --write-golden
//! ```

mod check;
mod layers;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cimflow_compiler::Strategy;
use cimflow_dse::{explore, EvalService, ExploreReport, Priority, ServiceConfig, SweepSpec};
use cimflow_obs::{MetricsRegistry, Tracer};
use cimflow_sim::SimReport;

use crate::check::{Golden, GridReference};
use crate::stats::{geomean, median, report_digest, tail};
use crate::workloads::{Request, Workload};

/// Worker threads of every service (the benchmark host has two CPUs).
const WORKERS: usize = 2;
/// Seeds whose per-point digests are checked in under `GOLDEN_DIR`.
const GOLDEN_SEEDS: [u64; 2] = [1, 7];
const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden");
/// How many times a run repeats its set-up; `setup_s` is the median.
/// (`ladder-explore` set-up evaluates the whole explore grid, so it
/// repeats fewer times.)
const SETUP_REPEATS: usize = 15;
const EXPLORE_SETUP_REPEATS: usize = 3;
/// The one point every sweep set-up evaluates as its warm-up.
const WARM_UP_MODEL: &str = "mobilenetv2";
const WARM_UP_RESOLUTION: u32 = 64;
/// Requests of a traced run: a prefix of the shuffled request list.
const TRACED_REQUESTS: usize = 30;
/// Requests that must lie beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    /// `None` only when recording golden digests.
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<PathBuf>,
    write_golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut write_golden = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--write-golden" => write_golden = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if seconds.is_none() && !write_golden {
        return Err("--seconds is required".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        trace_out,
        write_golden,
    })
}

/// Everything a run prepares before its first submission.
struct Setup {
    requests: Vec<Request>,
    golden: Option<Golden>,
    grid: Option<GridReference>,
}

fn setup(args: &Args) -> Result<Setup, String> {
    let requests = workloads::requests(args.workload, args.seed);
    for request in &requests {
        if let Request::Sweep(spec) = request {
            spec.expand().map_err(|e| format!("request {}: {e}", request.label()))?;
        }
    }
    let service = EvalService::new(ServiceConfig::new().with_workers(WORKERS));
    // Recording golden digests must not require the ones it replaces.
    let golden = match args.write_golden {
        true => None,
        false => Golden::load(Path::new(GOLDEN_DIR), args.workload, args.seed)?,
    };
    if golden.is_none() && !args.write_golden && GOLDEN_SEEDS.contains(&args.seed) {
        return Err(format!("golden digests for seed {} are missing", args.seed));
    }
    // The explore grid doubles as the warm-up; sweeps warm up on one
    // fixed point outside their request lists.
    let grid = match args.workload {
        Workload::LadderExplore => Some(GridReference::compute(&service)?),
        _ => {
            let warm_up = SweepSpec::new()
                .with_model(WARM_UP_MODEL, WARM_UP_RESOLUTION)
                .with_strategies(&[Strategy::DpOptimized]);
            let warm = service.submit_sweep(&warm_up).map_err(|e| e.to_string())?;
            if warm.wait().iter().any(|o| o.result.is_err()) {
                return Err("the warm-up point failed".to_owned());
            }
            None
        }
    };
    Ok(Setup { requests, golden, grid })
}

/// What one executed request produced.
pub struct Executed {
    pub latency: Duration,
    /// Points attempted (on `ladder-explore`: evaluations that charged
    /// budget).
    pub attempted: usize,
    /// Per-point failures: refused submissions and per-point errors.
    pub failed: usize,
    /// Per-point results in grid order (on `ladder-explore`: the
    /// full-fidelity outcomes).
    pub points: Vec<PointResult>,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub traces_recorded: u64,
    pub explore: Option<ExploreReport>,
}

/// One design point's result.
pub struct PointResult {
    pub label: String,
    /// The simulation report; `None` for a failed point.
    pub report: Option<SimReport>,
    /// Whether the service answered the point by trace replay.
    pub replayed: bool,
}

fn execute(
    request: &Request,
    request_id: u64,
    tracer: Option<&Tracer>,
    metrics: Option<&MetricsRegistry>,
) -> Executed {
    let mut config = ServiceConfig::new().with_workers(WORKERS);
    if let Some(tracer) = tracer {
        config = config.with_tracer(tracer.clone());
    }
    if let Some(metrics) = metrics {
        config = config.with_metrics(metrics.clone());
    }
    let service = EvalService::new(config);
    let started = Instant::now();
    let (outcomes, explored, refused) = match request {
        Request::Sweep(spec) => {
            let tenant = format!("req-{request_id}");
            match service.submit_sweep_as(&tenant, Priority::Normal, spec) {
                Ok(handle) => (handle.wait(), None, 0),
                Err(_) => (Vec::new(), None, spec.point_count()),
            }
        }
        Request::Explore(spec) => match explore(spec, &service) {
            Ok(report) => (report.outcomes.clone(), Some(report), 0),
            Err(_) => (Vec::new(), None, spec.budget as usize),
        },
    };
    let latency = started.elapsed();
    let cache = service.cache().stats();
    let traces_recorded = service.trace_store().stats().recorded;
    drop(service);

    let failed = refused + outcomes.iter().filter(|o| o.result.is_err()).count();
    let points = outcomes
        .iter()
        .map(|o| PointResult {
            label: o.point.label(),
            report: o.evaluation().map(|e| e.simulation.clone()),
            replayed: o.evaluation().is_some_and(|e| e.eval_path.is_replayed()),
        })
        .collect();
    let attempted = match &explored {
        Some(report) => report.budget_used as usize,
        None => refused + outcomes.len(),
    };
    Executed {
        latency,
        attempted,
        failed,
        points,
        cache_hits: cache.hits,
        cache_lookups: cache.hits + cache.misses,
        traces_recorded,
        explore: explored,
    }
}

/// Per-request digests as recorded in (and compared against) the golden
/// files: one digest per point, or the trajectory digest of an explore.
fn digests(executed: &Executed) -> Vec<u64> {
    match &executed.explore {
        Some(report) => vec![check::trajectory_digest(report)],
        None => {
            executed.points.iter().map(|p| p.report.as_ref().map_or(0, report_digest)).collect()
        }
    }
}

extern "C" {
    /// glibc: returns the heap's free pages to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the heap's freed pages to the kernel, then resets the memory
/// high-water mark to the resident size, so the next reading of `VmHWM`
/// is the peak of what ran since (and not, say, the ~400 MiB of freed
/// heap the `ladder-explore` grid leaves behind at set-up).
fn reset_peak_rss() -> std::io::Result<()> {
    // SAFETY: `malloc_trim` only releases memory no allocation owns.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
}

/// One `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in MiB.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(field)?
                    .strip_prefix(':')?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The run-wide tallies every mode reports.
#[derive(Default)]
struct Tally {
    latencies: Vec<f64>,
    attempted: usize,
    failed: usize,
    cache_hits: u64,
    cache_lookups: u64,
    points: usize,
    replayed: usize,
    traces_recorded: Vec<f64>,
    /// First-pass results, by request index: later passes must repeat
    /// them, and the geomeans and independent checks read them.
    first: Vec<Option<Executed>>,
    mismatches: Vec<String>,
}

impl Tally {
    fn record(
        &mut self,
        index: usize,
        requests: &[Request],
        golden: Option<&Golden>,
        ran: Executed,
    ) {
        self.latencies.push(ran.latency.as_secs_f64());
        self.attempted += ran.attempted;
        self.failed += ran.failed;
        self.cache_hits += ran.cache_hits;
        self.cache_lookups += ran.cache_lookups;
        self.points += ran.points.len();
        self.replayed += ran.points.iter().filter(|p| p.replayed).count();
        self.traces_recorded.push(ran.traces_recorded as f64);
        let digests = digests(&ran);
        let label = requests[index].label();
        match &self.first[index] {
            Some(first) => {
                if self::digests(first) != digests {
                    self.failed += 1;
                    self.mismatches.push(format!("{label}: result differs from the first pass"));
                }
            }
            None => {
                if let Some(golden) = golden {
                    if let Err(mismatch) = golden.check(index, &label, &digests) {
                        self.failed += mismatch.count;
                        self.mismatches.push(mismatch.message);
                    }
                }
                self.first[index] = Some(ran);
            }
        }
    }
}

fn json_metric(out: &mut Vec<String>, name: &str, value: f64, unit: &str) {
    let value = if value.is_finite() { value } else { 0.0 };
    out.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, process_start: Instant) -> Result<(), String> {
    // Set-up, repeated. Each repetition is timed as a whole set-up from
    // process start: the time before the first repetition (start-up and
    // argument parsing) plus the repetition itself.
    let repeats = match args.workload {
        Workload::LadderExplore => EXPLORE_SETUP_REPEATS,
        _ => SETUP_REPEATS,
    };
    let before_setup = process_start.elapsed();
    let mut setup_times = Vec::with_capacity(repeats);
    let mut prepared = None;
    for _ in 0..repeats {
        let started = Instant::now();
        prepared = Some(setup(args)?);
        setup_times.push((before_setup + started.elapsed()).as_secs_f64());
    }
    let prepared = prepared.expect("set-up ran at least once");
    let requests = &prepared.requests;

    let Some(seconds) = args.seconds else {
        return write_golden(args, requests);
    };
    // The traced run times every request three times (untraced, traced
    // and layer by layer), so it covers only a prefix of the list, once.
    let (passes, count) = match args.trace {
        true => (1, TRACED_REQUESTS),
        false => {
            let passes = (seconds / args.workload.nominal_pass_s()).round().max(1.0);
            (passes as usize, requests.len())
        }
    };

    let resident_after_setup = status_mib("VmRSS");
    if let Err(e) = reset_peak_rss() {
        eprintln!(
            "perfbench: warning: cannot reset the memory high-water mark ({e}); \
             peak_rss_mib reads the process's running mark, set-up included"
        );
    }
    // Memory high-water mark of each request. Its maximum is set by one
    // or two outlier explore calls and moves with the seed, so the metric
    // takes it at the same rank as the latency tail.
    let mut request_peaks = Vec::new();
    let mut tally = Tally { first: requests.iter().map(|_| None).collect(), ..Tally::default() };
    let mut traced = args.trace.then(|| layers::TracedRun::new(args.workload));
    let loop_start = Instant::now();
    for pass in 0..passes {
        for (index, request) in requests.iter().enumerate().take(count) {
            let request_id = (pass * requests.len() + index) as u64;
            // A failure was reported before the loop.
            let _ = reset_peak_rss();
            let ran = match traced.as_mut() {
                None => execute(request, request_id, None, None),
                Some(traced) => traced.request(request, request_id),
            };
            request_peaks.push(status_mib("VmHWM"));
            tally.record(index, requests, prepared.golden.as_ref(), ran);
        }
    }
    let loop_wall = loop_start.elapsed().as_secs_f64();
    let (peak_pct, peak_rss) = tail(&request_peaks, TAIL_BEYOND);

    // Independent checks on the first pass, outside the timed loop.
    let checked = check::independent(
        args.workload,
        args.seed,
        requests,
        &tally.first,
        prepared.grid.as_ref(),
    );
    tally.failed += checked.failures.len();
    tally.mismatches.extend(checked.failures.iter().cloned());
    let samples = match traced {
        Some(traced) => {
            let samples = traced.finish(args.trace_out.as_deref())?;
            tally.failed += samples.failures.len();
            tally.mismatches.extend(samples.failures.iter().cloned());
            Some(samples)
        }
        None => None,
    };
    if tally.cache_hits > 0 {
        tally.mismatches.push(format!(
            "dse.cache_hit_ratio is {} / {}: a request was served from the cache",
            tally.cache_hits, tally.cache_lookups
        ));
    }

    // Simulated-result aggregates over the first pass.
    let mut cycles = Vec::new();
    let mut energy_uj = Vec::new();
    let mut hv_ratios = Vec::new();
    for ran in tally.first.iter().flatten() {
        for report in ran.points.iter().filter_map(|p| p.report.as_ref()) {
            cycles.push(report.total_cycles as f64);
            energy_uj.push(report.energy.total_pj() / 1.0e6);
        }
        if let (Some(report), Some(grid)) = (&ran.explore, &prepared.grid) {
            hv_ratios.push(grid.hv_ratio(&report.outcomes));
        }
    }
    let hv_ratio = if hv_ratios.is_empty() {
        // A sweep is exhaustive over its own grid: it reaches the grid's
        // frontier by definition.
        1.0
    } else {
        hv_ratios.iter().sum::<f64>() / hv_ratios.len() as f64
    };

    let latency_sum: f64 = tally.latencies.iter().sum();
    let points_per_s = tally.attempted as f64 / latency_sum.max(f64::MIN_POSITIVE);
    let p50_ms = median(&tally.latencies) * 1e3;
    let (tail_pct, tail_s) = tail(&tally.latencies, TAIL_BEYOND);
    let setup_s = median(&setup_times);
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    let correct = tally.mismatches.is_empty() && tally.failed == 0;

    eprintln!(
        "perfbench {} seed {} ({}): {} request(s) in {passes} pass(es) over {loop_wall:.2} s, \
         {} point(s)",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        tally.latencies.len(),
        tally.attempted
    );
    eprintln!("  points_per_s          {points_per_s:.3} 1/s");
    eprintln!("  request_p50_ms        {p50_ms:.3} ms");
    eprintln!(
        "  request_tail_ms       {:.3} ms (p{tail_pct:.1} of {} requests)",
        tail_s * 1e3,
        tally.latencies.len()
    );
    eprintln!("  setup_s               {setup_s:.4} s (median of {repeats})");
    eprintln!(
        "  peak_rss_mib          {peak_rss:.1} MiB (per-request high-water mark, p{peak_pct:.1} of \
         {} requests; max {:.1} MiB; {resident_after_setup:.1} MiB resident after set-up)",
        request_peaks.len(),
        request_peaks.iter().copied().fold(0.0, f64::max)
    );
    eprintln!("  error_rate            {error_rate} ({} / {})", tally.failed, tally.attempted);
    eprintln!(
        "  sim_cycles_geomean    {:.1} cycles over {} point(s)",
        geomean(&cycles),
        cycles.len()
    );
    eprintln!("  sim_energy_uj_geomean {:.4} uJ", geomean(&energy_uj));
    eprintln!("  explore_hv_ratio      {hv_ratio:.4} over {} explore(s)", hv_ratios.len());
    eprintln!(
        "  golden check          {}",
        match (&prepared.golden, checked.independent) {
            (Some(_), n) => format!("seed {} digests + {n} independent comparison(s)", args.seed),
            (None, n) => format!("no digests for this seed; {n} independent comparison(s)"),
        }
    );
    for mismatch in &tally.mismatches {
        eprintln!("  FAILED: {mismatch}");
    }

    let mut metrics = Vec::new();
    match samples {
        None => {
            json_metric(&mut metrics, "points_per_s", points_per_s, "1/s");
            json_metric(&mut metrics, "request_p50_ms", p50_ms, "ms");
            json_metric(&mut metrics, "request_tail_ms", tail_s * 1e3, "ms");
            json_metric(&mut metrics, "setup_s", setup_s, "s");
            json_metric(&mut metrics, "peak_rss_mib", peak_rss, "MiB");
            json_metric(&mut metrics, "sim_cycles_geomean", geomean(&cycles), "cycles");
            json_metric(&mut metrics, "sim_energy_uj_geomean", geomean(&energy_uj), "uJ");
            json_metric(&mut metrics, "explore_hv_ratio", hv_ratio, "ratio");
        }
        Some(samples) => {
            let cache_hit_ratio = tally.cache_hits as f64 / tally.cache_lookups.max(1) as f64;
            let replayed_ratio = tally.replayed as f64 / tally.points.max(1) as f64;
            let recorded = median(&tally.traces_recorded);
            for (name, value, unit) in samples.metrics(cache_hit_ratio, replayed_ratio, recorded) {
                eprintln!("  {name:<34} {value:.4} {unit}");
                json_metric(&mut metrics, &name, value, unit);
            }
            for line in samples.share_report() {
                eprintln!("  {line}");
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    );
    Ok(())
}

fn write_golden(args: &Args, requests: &[Request]) -> Result<(), String> {
    let mut rows = Vec::with_capacity(requests.len());
    for (index, request) in requests.iter().enumerate() {
        let ran = execute(request, index as u64, None, None);
        if ran.failed > 0 || ran.cache_hits > 0 {
            return Err(format!(
                "{}: {} failed point(s); not recording",
                request.label(),
                ran.failed
            ));
        }
        rows.push((request.label(), digests(&ran)));
    }
    let path = Golden::write(Path::new(GOLDEN_DIR), args.workload, args.seed, &rows)?;
    eprintln!("wrote {} request digest row(s) to {}", rows.len(), path.display());
    Ok(())
}
