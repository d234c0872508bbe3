//! The serving front end of the [`EvalService`]: a
//! newline-delimited JSON protocol, a per-connection handler, and a TCP
//! loopback listener.
//!
//! Each request is one JSON object per line; each line produces exactly
//! one JSON response line. The protocol is externally tagged:
//!
//! ```text
//! -> {"submit": {"model": {"name": "resnet18", "resolution": 32},
//!                "strategy": "dp", "tenant": "alice", "priority": "high"}}
//! <- {"accepted": {"job": 1}}
//! -> {"wait": {"job": 1}}
//! <- {"result": {"job": 1, "label": "...", "ok": true, "cached": false,
//!                "total_cycles": 123, "energy_mj": 0.5,
//!                "throughput_tops": 1.2, "error": null}}
//! -> {"sweep": {"spec": {...SweepSpec...}, "tenant": "bob"}}
//! <- {"accepted_batch": {"batch": 1, "jobs": [2, 3], "points": 2, "resumed": 0}}
//! -> {"stats": {}}
//! <- {"stats": {"service": {...}, "cache": {...}, "cache_entries": 2,
//!               "tenants": [["alice", 3]]}}
//! -> {"metrics": {}}
//! <- {"metrics": {"exposition": "# TYPE service_evals_completed counter\n...",
//!                 "metrics": [{"name": "service.queue_wait_us", ...}]}}
//! ```
//!
//! Over-quota and queue-full submissions answer
//! `{"rejected": {"kind": "quota_exceeded", "reason": "..."}}`; malformed
//! lines answer `{"error": {"message": "..."}}` and keep the connection
//! open, as do request lines longer than [`MAX_REQUEST_LINE_BYTES`], whose
//! bytes are discarded up to the next newline. `{"shutdown": {}}` stops
//! the service and (for the TCP listener) the accept loop.
//!
//! The module lives in `cimflow-dse` so the `cimflow-dse serve`
//! subcommand can host it; the `cimflow-serve` crate re-exports it and
//! adds the typed [`Client`](../../cimflow_serve/struct.Client.html).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use serde::{Content, Deserialize, Serialize};

use crate::service::{BatchHandle, EvalRequest, JobHandle, Priority, DEFAULT_TENANT};
use crate::{DseOutcome, EvalService, SweepSpec};

/// A protocol request: one per line, externally tagged.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one evaluation request (boxed: a request with a traffic
    /// workload is much larger than the control-plane variants).
    Submit(Box<EvalRequest>),
    /// Submit a sweep as a batch (always admitted: queue bounds and
    /// quotas apply to every wire submission).
    Sweep {
        /// The sweep grid (boxed: a spec with a traffic section is much
        /// larger than the other request variants).
        spec: Box<SweepSpec>,
        /// Tenant to charge the batch to; `None` means
        /// [`DEFAULT_TENANT`].
        tenant: Option<String>,
        /// Batch priority; `None` means normal.
        priority: Option<Priority>,
    },
    /// Non-blocking status of a job or batch.
    Poll(Target),
    /// Block until a job or batch finishes, then return its result(s).
    /// With `timeout_ms` set the wait is bounded: on expiry the response
    /// is the current `status` (the id is *not* consumed), so one slow
    /// job no longer wedges every other request on the connection — a
    /// client can lease the connection in bounded slices and interleave
    /// polls, cancels or new submissions between them.
    Wait {
        /// The job or batch to wait on.
        target: Target,
        /// Optional deadline in milliseconds; `None` blocks until done.
        timeout_ms: Option<u64>,
    },
    /// Cancel a queued job or every queued point of a batch.
    Cancel(Target),
    /// Service and cache counters.
    Stats,
    /// A metrics snapshot: structured entries plus Prometheus text
    /// exposition (queue-wait/eval-latency quantiles per tenant, cache
    /// and admission counters, worker/queue gauges).
    Metrics,
    /// Stop the service (and the listener hosting this connection).
    Shutdown,
}

/// What a poll/wait/cancel request addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// A single job by id.
    Job(u64),
    /// A batch by id.
    Batch(u64),
}

/// A protocol response: one per request, externally tagged.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The submission was admitted.
    Accepted {
        /// Service-wide job id.
        job: u64,
    },
    /// The batch was admitted.
    AcceptedBatch {
        /// Connection-local batch id.
        batch: u64,
        /// Service-wide job ids in grid order.
        jobs: Vec<u64>,
        /// Number of points in the batch.
        points: usize,
        /// Points served from a journal without re-running.
        resumed: usize,
    },
    /// Admission control rejected the submission (backpressure).
    Rejected {
        /// Machine-readable kind (`queue_full`, `quota_exceeded`, ...).
        kind: String,
        /// Human-readable reason.
        reason: String,
    },
    /// Non-blocking status snapshot.
    Status {
        /// `queued`/`running`/`done`/`cancelled` for jobs; batches report
        /// `running` until every point is terminal.
        state: String,
        /// Finished points (for batches; 0/1 for jobs).
        completed: usize,
        /// Total points (1 for jobs).
        total: usize,
    },
    /// A finished job.
    Result(WireOutcome),
    /// A finished batch, outcomes in grid order.
    BatchResult {
        /// The connection-local batch id.
        batch: u64,
        /// Per-point outcomes.
        outcomes: Vec<WireOutcome>,
    },
    /// Cancellation acknowledgement.
    Cancelled {
        /// Number of points cancelled (0/1 for jobs).
        cancelled: usize,
    },
    /// Service and cache counters.
    Stats {
        /// Service counters.
        service: crate::ServiceStats,
        /// Cache hit/miss/coalesced counters.
        cache: crate::CacheStats,
        /// Number of stored evaluations.
        cache_entries: usize,
        /// In-flight (queued + running) points per tenant, sorted by
        /// name. `None` when talking to a server predating this field
        /// (old clients simply ignore it).
        tenants: Option<Vec<(String, usize)>>,
    },
    /// A metrics snapshot.
    Metrics {
        /// Prometheus text exposition of every instrument.
        exposition: String,
        /// The same snapshot as structured entries.
        metrics: Vec<WireMetric>,
    },
    /// Shutdown acknowledgement.
    ShuttingDown,
    /// The request was malformed or referenced an unknown id.
    Error {
        /// Human-readable message.
        message: String,
    },
}

/// The wire projection of a [`DseOutcome`]: the point label plus headline
/// metrics (the full [`Evaluation`](crate::Evaluation) record stays
/// server-side; clients wanting raw reports use the library API).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireOutcome {
    /// Service-wide job id (`None` in batch results before assignment —
    /// never in practice; kept optional for schema evolution).
    pub job: Option<u64>,
    /// Human-readable point label.
    pub label: String,
    /// Whether the evaluation succeeded.
    pub ok: bool,
    /// Whether the result came from the cache (or a journal).
    pub cached: bool,
    /// The per-point error, when `ok` is false.
    pub error: Option<String>,
    /// Total execution cycles.
    pub total_cycles: Option<u64>,
    /// Total energy in millijoules.
    pub energy_mj: Option<f64>,
    /// Throughput in TOPS.
    pub throughput_tops: Option<f64>,
    /// Serving SLO metrics when the point ran under a traffic workload;
    /// `None` for offline points and for servers predating this field
    /// (old clients simply ignore it).
    pub serving: Option<crate::ServingSummary>,
}

/// The wire projection of one metrics-snapshot entry. Counter and gauge
/// entries carry `value`; histogram entries carry the summary fields
/// (`count`/`sum`/`min`/`max`/`p50`/`p90`/`p99`) instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireMetric {
    /// Dotted metric name (e.g. `service.queue_wait_us`).
    pub name: String,
    /// Label pairs, as registered.
    pub labels: Vec<(String, String)>,
    /// `counter`, `gauge` or `histogram`.
    pub kind: String,
    /// Counter/gauge value.
    pub value: Option<f64>,
    /// Histogram: recorded values.
    pub count: Option<u64>,
    /// Histogram: sum of recorded values.
    pub sum: Option<u64>,
    /// Histogram: smallest recorded value.
    pub min: Option<u64>,
    /// Histogram: largest recorded value.
    pub max: Option<u64>,
    /// Histogram: median.
    pub p50: Option<u64>,
    /// Histogram: 90th percentile.
    pub p90: Option<u64>,
    /// Histogram: 99th percentile.
    pub p99: Option<u64>,
}

impl WireMetric {
    /// Projects one snapshot entry onto the wire schema.
    pub fn of(entry: &cimflow_obs::MetricEntry) -> Self {
        use cimflow_obs::MetricValue;
        let mut metric = WireMetric {
            name: entry.name.clone(),
            labels: entry.labels.clone(),
            kind: String::new(),
            value: None,
            count: None,
            sum: None,
            min: None,
            max: None,
            p50: None,
            p90: None,
            p99: None,
        };
        match &entry.value {
            MetricValue::Counter(v) => {
                metric.kind = "counter".to_owned();
                metric.value = Some(*v as f64);
            }
            MetricValue::Gauge(v) => {
                metric.kind = "gauge".to_owned();
                metric.value = Some(*v as f64);
            }
            MetricValue::Histogram(h) => {
                metric.kind = "histogram".to_owned();
                metric.count = Some(h.count);
                metric.sum = Some(h.sum);
                metric.min = Some(h.min);
                metric.max = Some(h.max);
                metric.p50 = Some(h.p50());
                metric.p90 = Some(h.p90());
                metric.p99 = Some(h.p99());
            }
        }
        metric
    }
}

impl WireOutcome {
    /// Projects an outcome onto the wire schema.
    pub fn of(job: u64, outcome: &DseOutcome) -> Self {
        let evaluation = outcome.result.as_ref().ok();
        WireOutcome {
            job: Some(job),
            label: outcome.point.label(),
            ok: outcome.result.is_ok(),
            cached: outcome.cached,
            error: outcome.result.as_ref().err().map(ToString::to_string),
            total_cycles: evaluation.map(|e| e.simulation.total_cycles),
            energy_mj: evaluation.map(|e| e.simulation.energy_mj()),
            throughput_tops: evaluation.map(|e| e.simulation.throughput_tops()),
            serving: evaluation.and_then(|e| e.serving.clone()),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire serialization (hand-written: snake_case external tags)
// ---------------------------------------------------------------------------

fn tagged(tag: &str, value: Content) -> Content {
    Content::Map(vec![(tag.to_owned(), value)])
}

fn untag(content: &Content) -> Result<(&str, &Content), serde::Error> {
    let map = content.as_map().ok_or_else(|| serde::Error::new("expected a tagged object"))?;
    match map {
        [(tag, value)] => Ok((tag.as_str(), value)),
        _ => Err(serde::Error::new("expected exactly one request/response tag")),
    }
}

fn field<'c>(map: &'c [(String, Content)], name: &str) -> Option<&'c Content> {
    map.iter().find(|(key, _)| key == name).map(|(_, value)| value)
}

impl serde::Serialize for Target {
    fn serialize(&self) -> Content {
        match self {
            Target::Job(id) => Content::Map(vec![("job".to_owned(), Content::U64(*id))]),
            Target::Batch(id) => Content::Map(vec![("batch".to_owned(), Content::U64(*id))]),
        }
    }
}

impl serde::Deserialize for Target {
    fn deserialize(content: &Content) -> Result<Self, serde::Error> {
        let map = content.as_map().ok_or_else(|| serde::Error::new("expected a target object"))?;
        match (field(map, "job"), field(map, "batch")) {
            (Some(id), None) => Ok(Target::Job(u64::deserialize(id)?)),
            (None, Some(id)) => Ok(Target::Batch(u64::deserialize(id)?)),
            _ => Err(serde::Error::new("expected either a `job` or a `batch` id")),
        }
    }
}

impl serde::Serialize for Request {
    fn serialize(&self) -> Content {
        match self {
            Request::Submit(request) => tagged("submit", request.serialize()),
            Request::Sweep { spec, tenant, priority } => tagged(
                "sweep",
                Content::Map(vec![
                    ("spec".to_owned(), spec.serialize()),
                    ("tenant".to_owned(), tenant.serialize()),
                    ("priority".to_owned(), priority.serialize()),
                ]),
            ),
            Request::Poll(target) => tagged("poll", target.serialize()),
            Request::Wait { target, timeout_ms } => {
                let mut map = match target.serialize() {
                    Content::Map(map) => map,
                    _ => unreachable!("targets serialize to maps"),
                };
                if timeout_ms.is_some() {
                    map.push(("timeout_ms".to_owned(), timeout_ms.serialize()));
                }
                tagged("wait", Content::Map(map))
            }
            Request::Cancel(target) => tagged("cancel", target.serialize()),
            Request::Stats => tagged("stats", Content::Map(Vec::new())),
            Request::Metrics => tagged("metrics", Content::Map(Vec::new())),
            Request::Shutdown => tagged("shutdown", Content::Map(Vec::new())),
        }
    }
}

impl serde::Deserialize for Request {
    fn deserialize(content: &Content) -> Result<Self, serde::Error> {
        let (tag, value) = untag(content)?;
        match tag {
            "submit" => Ok(Request::Submit(Box::new(EvalRequest::deserialize(value)?))),
            "sweep" => {
                let map =
                    value.as_map().ok_or_else(|| serde::Error::new("expected a sweep object"))?;
                let spec = field(map, "spec")
                    .ok_or_else(|| serde::Error::new("sweep request needs a `spec`"))?;
                Ok(Request::Sweep {
                    spec: Box::new(SweepSpec::deserialize(spec)?),
                    tenant: match field(map, "tenant") {
                        None | Some(Content::Null) => None,
                        Some(value) => Some(String::deserialize(value)?),
                    },
                    priority: match field(map, "priority") {
                        None | Some(Content::Null) => None,
                        Some(value) => Some(Priority::deserialize(value)?),
                    },
                })
            }
            "poll" => Ok(Request::Poll(Target::deserialize(value)?)),
            "wait" => {
                let map =
                    value.as_map().ok_or_else(|| serde::Error::new("expected a wait object"))?;
                Ok(Request::Wait {
                    target: Target::deserialize(value)?,
                    timeout_ms: match field(map, "timeout_ms") {
                        None | Some(Content::Null) => None,
                        Some(value) => Some(u64::deserialize(value)?),
                    },
                })
            }
            "cancel" => Ok(Request::Cancel(Target::deserialize(value)?)),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(serde::Error::new(format!("unknown request `{other}`"))),
        }
    }
}

impl serde::Serialize for Response {
    fn serialize(&self) -> Content {
        match self {
            Response::Accepted { job } => {
                tagged("accepted", Content::Map(vec![("job".to_owned(), Content::U64(*job))]))
            }
            Response::AcceptedBatch { batch, jobs, points, resumed } => tagged(
                "accepted_batch",
                Content::Map(vec![
                    ("batch".to_owned(), Content::U64(*batch)),
                    ("jobs".to_owned(), jobs.serialize()),
                    ("points".to_owned(), points.serialize()),
                    ("resumed".to_owned(), resumed.serialize()),
                ]),
            ),
            Response::Rejected { kind, reason } => tagged(
                "rejected",
                Content::Map(vec![
                    ("kind".to_owned(), kind.serialize()),
                    ("reason".to_owned(), reason.serialize()),
                ]),
            ),
            Response::Status { state, completed, total } => tagged(
                "status",
                Content::Map(vec![
                    ("state".to_owned(), state.serialize()),
                    ("completed".to_owned(), completed.serialize()),
                    ("total".to_owned(), total.serialize()),
                ]),
            ),
            Response::Result(outcome) => tagged("result", outcome.serialize()),
            Response::BatchResult { batch, outcomes } => tagged(
                "batch_result",
                Content::Map(vec![
                    ("batch".to_owned(), Content::U64(*batch)),
                    ("outcomes".to_owned(), outcomes.serialize()),
                ]),
            ),
            Response::Cancelled { cancelled } => tagged(
                "cancelled",
                Content::Map(vec![("cancelled".to_owned(), cancelled.serialize())]),
            ),
            Response::Stats { service, cache, cache_entries, tenants } => tagged(
                "stats",
                Content::Map(vec![
                    ("service".to_owned(), service.serialize()),
                    ("cache".to_owned(), cache.serialize()),
                    ("cache_entries".to_owned(), cache_entries.serialize()),
                    ("tenants".to_owned(), tenants.serialize()),
                ]),
            ),
            Response::Metrics { exposition, metrics } => tagged(
                "metrics",
                Content::Map(vec![
                    ("exposition".to_owned(), exposition.serialize()),
                    ("metrics".to_owned(), metrics.serialize()),
                ]),
            ),
            Response::ShuttingDown => tagged("shutting_down", Content::Map(Vec::new())),
            Response::Error { message } => {
                tagged("error", Content::Map(vec![("message".to_owned(), message.serialize())]))
            }
        }
    }
}

impl serde::Deserialize for Response {
    fn deserialize(content: &Content) -> Result<Self, serde::Error> {
        let (tag, value) = untag(content)?;
        let map = value.as_map().unwrap_or(&[]);
        let req = |name: &str| {
            field(map, name).ok_or_else(|| serde::Error::new(format!("missing `{name}`")))
        };
        match tag {
            "accepted" => Ok(Response::Accepted { job: u64::deserialize(req("job")?)? }),
            "accepted_batch" => Ok(Response::AcceptedBatch {
                batch: u64::deserialize(req("batch")?)?,
                jobs: Vec::deserialize(req("jobs")?)?,
                points: usize::deserialize(req("points")?)?,
                resumed: usize::deserialize(req("resumed")?)?,
            }),
            "rejected" => Ok(Response::Rejected {
                kind: String::deserialize(req("kind")?)?,
                reason: String::deserialize(req("reason")?)?,
            }),
            "status" => Ok(Response::Status {
                state: String::deserialize(req("state")?)?,
                completed: usize::deserialize(req("completed")?)?,
                total: usize::deserialize(req("total")?)?,
            }),
            "result" => Ok(Response::Result(WireOutcome::deserialize(value)?)),
            "batch_result" => Ok(Response::BatchResult {
                batch: u64::deserialize(req("batch")?)?,
                outcomes: Vec::deserialize(req("outcomes")?)?,
            }),
            "cancelled" => {
                Ok(Response::Cancelled { cancelled: usize::deserialize(req("cancelled")?)? })
            }
            "stats" => Ok(Response::Stats {
                service: crate::ServiceStats::deserialize(req("service")?)?,
                cache: crate::CacheStats::deserialize(req("cache")?)?,
                cache_entries: usize::deserialize(req("cache_entries")?)?,
                // Optional for compatibility with pre-tenant servers.
                tenants: match field(map, "tenants") {
                    None | Some(Content::Null) => None,
                    Some(value) => Some(Vec::deserialize(value)?),
                },
            }),
            "metrics" => Ok(Response::Metrics {
                exposition: String::deserialize(req("exposition")?)?,
                metrics: Vec::deserialize(req("metrics")?)?,
            }),
            "shutting_down" => Ok(Response::ShuttingDown),
            "error" => Ok(Response::Error { message: String::deserialize(req("message")?)? }),
            other => Err(serde::Error::new(format!("unknown response `{other}`"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

/// Per-connection protocol state: the handles this session owns. Dropping
/// the connection releases them (the service keeps running their jobs).
pub struct Connection<'s> {
    service: &'s EvalService,
    jobs: HashMap<u64, JobHandle>,
    batches: HashMap<u64, BatchHandle>,
    next_batch: u64,
}

impl<'s> Connection<'s> {
    /// A fresh session on `service`.
    pub fn new(service: &'s EvalService) -> Self {
        Connection { service, jobs: HashMap::new(), batches: HashMap::new(), next_batch: 0 }
    }

    /// Handles one request line and returns the response plus whether the
    /// session asked the server to shut down.
    pub fn handle_line(&mut self, line: &str) -> (Response, bool) {
        match serde_json::from_str::<Request>(line) {
            Ok(request) => self.handle(request),
            Err(e) => (Response::Error { message: format!("bad request: {e}") }, false),
        }
    }

    /// Handles one parsed request.
    pub fn handle(&mut self, request: Request) -> (Response, bool) {
        let response = match request {
            Request::Submit(eval) => match self.service.submit(*eval) {
                Ok(handle) => {
                    let job = handle.id();
                    self.jobs.insert(job, handle);
                    Response::Accepted { job }
                }
                Err(rejected) => Response::Rejected {
                    kind: rejected.kind().to_owned(),
                    reason: rejected.to_string(),
                },
            },
            Request::Sweep { spec, tenant, priority } => {
                // Every wire submission passes admission — otherwise the
                // operator's --queue/--quota bounds would be bypassable
                // by omitting the tenant. (The unadmitted surface is
                // in-process only: `EvalService::submit_sweep`.)
                let tenant = tenant.as_deref().unwrap_or(DEFAULT_TENANT);
                let priority = priority.unwrap_or_default();
                match self.service.submit_sweep_as(tenant, priority, &spec) {
                    Ok(handle) => {
                        self.next_batch += 1;
                        let batch = self.next_batch;
                        let response = Response::AcceptedBatch {
                            batch,
                            jobs: handle.ids().to_vec(),
                            points: handle.len(),
                            // Journal-born points only: a point a fast
                            // worker finished before this response was
                            // built is completed, not "resumed".
                            resumed: handle.resumed(),
                        };
                        self.batches.insert(batch, handle);
                        response
                    }
                    Err(rejected) => Response::Rejected {
                        kind: rejected.kind().to_owned(),
                        reason: rejected.to_string(),
                    },
                }
            }
            Request::Poll(Target::Job(job)) => match self.jobs.get(&job) {
                Some(handle) => Response::Status {
                    state: handle.status().name().to_owned(),
                    completed: usize::from(handle.status().is_terminal()),
                    total: 1,
                },
                None => unknown("job", job),
            },
            Request::Poll(Target::Batch(batch)) => match self.batches.get(&batch) {
                Some(handle) => Response::Status {
                    state: if handle.is_done() { "done" } else { "running" }.to_owned(),
                    completed: handle.completed(),
                    total: handle.len(),
                },
                None => unknown("batch", batch),
            },
            // A *completed* wait consumes the id (results are delivered
            // exactly once): dropping the handle releases the
            // server-side result slot, so a long-lived connection's
            // memory is bounded by its in-flight work, not by everything
            // it ever submitted. Poll before waiting if status is needed
            // afterwards. A wait that expires on its `timeout_ms` does
            // NOT consume the id: it answers the current status and the
            // job/batch stays addressable.
            Request::Wait { target: Target::Job(job), timeout_ms } => match self.jobs.get(&job) {
                Some(handle) => {
                    let outcome = match timeout_ms {
                        None => Some(handle.wait()),
                        Some(ms) => handle.wait_timeout(Duration::from_millis(ms)),
                    };
                    match outcome {
                        Some(outcome) => {
                            self.jobs.remove(&job);
                            Response::Result(WireOutcome::of(job, &outcome))
                        }
                        None => Response::Status {
                            state: handle.status().name().to_owned(),
                            completed: usize::from(handle.status().is_terminal()),
                            total: 1,
                        },
                    }
                }
                None => unknown("job", job),
            },
            Request::Wait { target: Target::Batch(batch), timeout_ms } => {
                match self.batches.get(&batch) {
                    Some(handle) => {
                        let outcomes = match timeout_ms {
                            None => Some(handle.wait()),
                            Some(ms) => handle.wait_timeout(Duration::from_millis(ms)),
                        };
                        match outcomes {
                            Some(outcomes) => {
                                let response = Response::BatchResult {
                                    batch,
                                    outcomes: outcomes
                                        .iter()
                                        .zip(handle.ids())
                                        .map(|(outcome, id)| WireOutcome::of(*id, outcome))
                                        .collect(),
                                };
                                self.batches.remove(&batch);
                                response
                            }
                            None => Response::Status {
                                state: if handle.is_done() { "done" } else { "running" }.to_owned(),
                                completed: handle.completed(),
                                total: handle.len(),
                            },
                        }
                    }
                    None => unknown("batch", batch),
                }
            }
            Request::Cancel(Target::Job(job)) => match self.jobs.get(&job) {
                Some(handle) => Response::Cancelled { cancelled: usize::from(handle.cancel()) },
                None => unknown("job", job),
            },
            Request::Cancel(Target::Batch(batch)) => match self.batches.get(&batch) {
                Some(handle) => Response::Cancelled { cancelled: handle.cancel() },
                None => unknown("batch", batch),
            },
            Request::Stats => Response::Stats {
                service: self.service.stats(),
                cache: self.service.cache().stats(),
                cache_entries: self.service.cache().len(),
                tenants: Some(self.service.tenants_in_flight()),
            },
            Request::Metrics => {
                let snapshot = self.service.metrics_snapshot();
                Response::Metrics {
                    exposition: snapshot.render_prometheus(),
                    metrics: snapshot.entries.iter().map(WireMetric::of).collect(),
                }
            }
            Request::Shutdown => {
                self.service.shutdown();
                return (Response::ShuttingDown, true);
            }
        };
        (response, false)
    }
}

fn unknown(what: &str, id: u64) -> Response {
    Response::Error {
        message: format!("unknown {what} id {id} (not submitted on this connection)"),
    }
}

/// Longest request line, in bytes without its newline, that
/// [`serve_connection`] buffers (1 MiB). A longer line is answered with an
/// error and skipped, so a client that never sends a newline cannot grow
/// the server's memory without bound.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// Reads one `\n`-terminated line into `line` (without its `\n` or
/// `\r\n`), buffering at most [`MAX_REQUEST_LINE_BYTES`] of it. Returns
/// `Ok(None)` at EOF, `Ok(Some(true))` for a line that fits, and
/// `Ok(Some(false))` for an over-long line, whose remaining bytes are
/// discarded up to the next newline.
fn read_request_line(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
) -> std::io::Result<Option<bool>> {
    line.clear();
    let cap = MAX_REQUEST_LINE_BYTES as u64 + 1;
    if std::io::Read::take(&mut *reader, cap).read_until(b'\n', line)? == 0 {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if line.len() > MAX_REQUEST_LINE_BYTES {
        reader.skip_until(b'\n')?;
        return Ok(Some(false));
    }
    Ok(Some(true))
}

/// Serves one connection: reads newline-delimited JSON requests from
/// `reader` until EOF (or a shutdown request), writing one JSON response
/// line each. Returns whether shutdown was requested. A line longer than
/// [`MAX_REQUEST_LINE_BYTES`] gets an error response and the connection
/// keeps serving.
///
/// # Errors
///
/// Propagates I/O errors on the transport, including a line that is not
/// UTF-8.
pub fn serve_connection(
    service: &EvalService,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> std::io::Result<bool> {
    let mut connection = Connection::new(service);
    let mut buffer = Vec::new();
    while let Some(fits) = read_request_line(&mut reader, &mut buffer)? {
        let (response, shutdown) = if fits {
            let line = std::str::from_utf8(&buffer)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            if line.trim().is_empty() {
                continue;
            }
            connection.handle_line(line)
        } else {
            let message =
                format!("request line longer than {MAX_REQUEST_LINE_BYTES} bytes; skipped");
            (Response::Error { message }, false)
        };
        let response =
            serde_json::to_string(&response).expect("response serialization cannot fail");
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Serves stdin → stdout (the `cimflow-dse serve` default transport).
///
/// # Errors
///
/// Propagates I/O errors on the standard streams.
pub fn serve_stdio(service: &EvalService) -> std::io::Result<bool> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_connection(service, stdin.lock(), stdout.lock())
}

/// A condvar-backed shutdown latch: the accept loop and
/// [`TcpServer::wait_for_shutdown`] *wait* on it instead of busy-polling
/// a flag with fixed sleeps, so a shutdown request propagates at notify
/// latency rather than lagging up to a full poll interval.
#[derive(Debug, Default)]
struct ShutdownLatch {
    requested: Mutex<bool>,
    signal: Condvar,
}

impl ShutdownLatch {
    fn set(&self) {
        *self.requested.lock().expect("shutdown latch poisoned") = true;
        self.signal.notify_all();
    }

    fn is_set(&self) -> bool {
        *self.requested.lock().expect("shutdown latch poisoned")
    }

    /// Waits until the latch is set or `timeout` elapses; returns
    /// whether it is set.
    fn wait_timeout(&self, timeout: Duration) -> bool {
        let requested = self.requested.lock().expect("shutdown latch poisoned");
        let (requested, _) = self
            .signal
            .wait_timeout_while(requested, timeout, |requested| !*requested)
            .expect("shutdown latch poisoned");
        *requested
    }

    /// Blocks until the latch is set.
    fn wait(&self) {
        let requested = self.requested.lock().expect("shutdown latch poisoned");
        drop(
            self.signal
                .wait_while(requested, |requested| !*requested)
                .expect("shutdown latch poisoned"),
        );
    }
}

/// A loopback TCP listener serving the JSON protocol, one thread per
/// connection.
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<ShutdownLatch>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `127.0.0.1:port` (`port` 0 picks a free port) and starts
    /// accepting connections against `service`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(service: Arc<EvalService>, port: u16) -> std::io::Result<Self> {
        Self::spawn_polling(service, port, ACCEPT_POLL)
    }

    /// [`Self::spawn`] with an explicit cadence at which the idle accept
    /// loop re-checks the non-blocking listener for new connections.
    fn spawn_polling(
        service: Arc<EvalService>,
        port: u16,
        poll: Duration,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(ShutdownLatch::default());
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("cimflow-serve-accept".to_owned())
            .spawn(move || {
                while !accept_stop.is_set() {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let service = Arc::clone(&service);
                            let stop = Arc::clone(&accept_stop);
                            std::thread::spawn(move || {
                                let reader = match stream.try_clone() {
                                    Ok(clone) => BufReader::new(clone),
                                    Err(_) => return,
                                };
                                if let Ok(true) = serve_connection(&service, reader, &stream) {
                                    stop.set();
                                }
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            // The non-blocking listener still needs a poll
                            // cadence for *new connections*, but the latch
                            // wait means a shutdown interrupts the pause
                            // immediately instead of sleeping through it.
                            if accept_stop.wait_timeout(poll) {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn accept thread");
        Ok(TcpServer { addr, stop, accept_thread: Some(accept_thread) })
    }

    /// The bound address (`127.0.0.1:<port>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a connection requested shutdown.
    pub fn shutdown_requested(&self) -> bool {
        self.stop.is_set()
    }

    /// Stops accepting connections and joins the accept thread. Open
    /// connections finish their in-flight request loop independently.
    pub fn stop(mut self) {
        self.halt();
    }

    /// Blocks until a connection requests shutdown, then stops accepting.
    /// The wait is event-driven (woken by the shutdown notification),
    /// not polled.
    pub fn wait_for_shutdown(mut self) {
        self.stop.wait();
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.set();
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

/// How often the accept loop re-checks the non-blocking listener for new
/// connections while idle (shutdown wakes it immediately regardless).
const ACCEPT_POLL: Duration = Duration::from_millis(20);

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.halt();
    }
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer").field("addr", &self.addr).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvalRequest, ServiceConfig};
    use cimflow_compiler::Strategy;

    fn lines(requests: &[Request]) -> String {
        requests
            .iter()
            .map(|request| serde_json::to_string(request).unwrap())
            .collect::<Vec<_>>()
            .join("\n")
            + "\n"
    }

    fn responses(service: &EvalService, input: &str) -> Vec<Response> {
        responses_from(service, input.as_bytes())
    }

    fn responses_from(service: &EvalService, reader: impl BufRead) -> Vec<Response> {
        let mut output = Vec::new();
        serve_connection(service, reader, &mut output).expect("in-memory transport");
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|line| serde_json::from_str(line).expect("well-formed response"))
            .collect()
    }

    #[test]
    fn request_and_response_round_trip_through_json() {
        let requests = vec![
            Request::Submit(Box::new(
                EvalRequest::new("resnet18", 32, Strategy::DpOptimized)
                    .with_tenant("alice")
                    .with_priority(Priority::High),
            )),
            Request::Sweep {
                spec: Box::new(
                    SweepSpec::new()
                        .with_model("mobilenetv2", 32)
                        .with_strategies(&[Strategy::GenericMapping]),
                ),
                tenant: Some("bob".to_owned()),
                priority: None,
            },
            Request::Poll(Target::Job(3)),
            Request::Wait { target: Target::Batch(1), timeout_ms: None },
            Request::Wait { target: Target::Job(7), timeout_ms: Some(250) },
            Request::Cancel(Target::Job(9)),
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
        ];
        for request in requests {
            let text = serde_json::to_string(&request).unwrap();
            let back: Request = serde_json::from_str(&text).unwrap();
            assert_eq!(back, request, "{text}");
        }
        let responses = vec![
            Response::Accepted { job: 4 },
            Response::AcceptedBatch { batch: 1, jobs: vec![5, 6], points: 2, resumed: 1 },
            Response::Rejected { kind: "queue_full".to_owned(), reason: "full".to_owned() },
            Response::Status { state: "running".to_owned(), completed: 1, total: 4 },
            Response::Cancelled { cancelled: 2 },
            Response::Stats {
                service: crate::ServiceStats::default(),
                cache: crate::CacheStats { hits: 1, misses: 2, coalesced: 0 },
                cache_entries: 2,
                tenants: Some(vec![("alice".to_owned(), 3)]),
            },
            Response::Metrics {
                exposition: "# TYPE x counter\nx 1\n".to_owned(),
                metrics: vec![WireMetric {
                    name: "service.queue_wait_us".to_owned(),
                    labels: vec![("tenant".to_owned(), "alice".to_owned())],
                    kind: "histogram".to_owned(),
                    value: None,
                    count: Some(4),
                    sum: Some(100),
                    min: Some(10),
                    max: Some(40),
                    p50: Some(25),
                    p90: Some(40),
                    p99: Some(40),
                }],
            },
            Response::ShuttingDown,
            Response::Error { message: "nope".to_owned() },
        ];
        for response in responses {
            let text = serde_json::to_string(&response).unwrap();
            let back: Response = serde_json::from_str(&text).unwrap();
            assert_eq!(back, response, "{text}");
        }
        // A `stats` reply from a server predating the `tenants` field
        // still parses (the field defaults to absent).
        let old = "{\"stats\": {\"service\": {\"submitted\": 0, \"completed\": 0, \
                    \"cancelled\": 0, \"rejected\": 0, \"queued\": 0, \"running\": 0}, \
                    \"cache\": {\"hits\": 0, \"misses\": 0}, \"cache_entries\": 0}}";
        match serde_json::from_str::<Response>(old).unwrap() {
            Response::Stats { tenants, cache, .. } => {
                assert_eq!(tenants, None);
                assert_eq!(cache.coalesced, 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn connection_submits_waits_and_reports_stats() {
        let service = EvalService::new(ServiceConfig::new().with_workers(2));
        let input = lines(&[
            Request::Submit(Box::new(EvalRequest::new(
                "mobilenetv2",
                32,
                Strategy::GenericMapping,
            ))),
            Request::Poll(Target::Job(1)),
            Request::Wait { target: Target::Job(1), timeout_ms: None },
            Request::Poll(Target::Job(1)),
            Request::Stats,
            Request::Metrics,
        ]);
        let responses = responses(&service, &input);
        assert_eq!(responses[0], Response::Accepted { job: 1 });
        match &responses[1] {
            Response::Status { total: 1, .. } => {}
            other => panic!("expected a pre-wait status, got {other:?}"),
        }
        match &responses[2] {
            Response::Result(outcome) => {
                assert!(outcome.ok);
                assert!(outcome.total_cycles.unwrap() > 0);
                assert!(outcome.error.is_none());
            }
            other => panic!("expected a result, got {other:?}"),
        }
        // The wait consumed the id: the result slot is released.
        assert!(matches!(&responses[3], Response::Error { .. }));
        match &responses[4] {
            Response::Stats { service, cache, cache_entries, tenants } => {
                assert_eq!(service.completed, 1);
                assert_eq!(cache.misses, 1);
                assert_eq!(*cache_entries, 1);
                assert_eq!(tenants.as_deref(), Some(&[][..]), "nothing in flight after the wait");
            }
            other => panic!("expected stats, got {other:?}"),
        }
        match &responses[5] {
            Response::Metrics { exposition, metrics } => {
                assert!(exposition.contains("service_evals_completed 1"), "{exposition}");
                let latency = metrics
                    .iter()
                    .find(|m| m.name == "service.eval_latency_us")
                    .expect("eval latency is exported");
                assert_eq!(latency.kind, "histogram");
                assert_eq!(latency.count, Some(1));
                assert!(latency.p99.unwrap() >= latency.p50.unwrap());
            }
            other => panic!("expected metrics, got {other:?}"),
        }
    }

    #[test]
    fn connection_runs_batches_and_survives_garbage() {
        let service = EvalService::new(ServiceConfig::new().with_workers(2));
        let sweep = Request::Sweep {
            spec: Box::new(
                SweepSpec::new()
                    .with_model("mobilenetv2", 32)
                    .with_strategies(&[Strategy::GenericMapping])
                    .with_mg_sizes(&[4, 8]),
            ),
            tenant: Some("alice".to_owned()),
            priority: Some(Priority::High),
        };
        let input = format!(
            "not json at all\n{}\n{}\n{}\n",
            serde_json::to_string(&sweep).unwrap(),
            serde_json::to_string(&Request::Wait { target: Target::Batch(1), timeout_ms: None })
                .unwrap(),
            serde_json::to_string(&Request::Wait { target: Target::Batch(77), timeout_ms: None })
                .unwrap(),
        );
        let responses = responses(&service, &input);
        assert!(matches!(&responses[0], Response::Error { .. }), "garbage gets an error line");
        let jobs = match &responses[1] {
            Response::AcceptedBatch { batch: 1, jobs, points: 2, resumed: 0 } => jobs.clone(),
            other => panic!("expected an accepted batch, got {other:?}"),
        };
        match &responses[2] {
            Response::BatchResult { batch: 1, outcomes } => {
                assert_eq!(outcomes.len(), 2);
                assert!(outcomes.iter().all(|o| o.ok));
                assert_eq!(
                    outcomes.iter().map(|o| o.job.unwrap()).collect::<Vec<_>>(),
                    jobs,
                    "outcomes are in grid order"
                );
            }
            other => panic!("expected a batch result, got {other:?}"),
        }
        assert!(matches!(&responses[3], Response::Error { .. }), "unknown ids get an error");
    }

    #[test]
    fn shutdown_wakes_the_idle_accept_loop_through_the_latch() {
        // With an hour-long poll cadence only the latch's condvar can end
        // the accept loop's idle wait, so this returning proves the
        // wake-up is event-driven: a lost notification hangs here instead
        // of passing a poll interval late.
        let service = Arc::new(EvalService::new(ServiceConfig::new().with_workers(1)));
        let server = TcpServer::spawn_polling(service, 0, Duration::from_secs(3600)).unwrap();
        // A connection's shutdown request raises the latch from another
        // thread; the waiter and the accept loop both wake on it.
        let latch = Arc::clone(&server.stop);
        let requester = std::thread::spawn(move || latch.set());
        server.wait_for_shutdown();
        requester.join().unwrap();
    }

    #[test]
    fn unbuildable_models_get_error_outcomes_and_the_connection_keeps_serving() {
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        // Each of these used to panic the connection thread (and with it
        // a stdio server) inside the model builder.
        let input = [
            r#"{"submit":{"model":{"name":"mobilenetv2","resolution":0},"strategy":"dp"}}"#,
            r#"{"wait":{"job":1}}"#,
            r#"{"sweep":{"spec":{"models":[{"name":"resnet18","resolution":0}],"strategies":["dp"]}}}"#,
            r#"{"wait":{"batch":1}}"#,
            r#"{"submit":{"model":{"name":"vgg19","resolution":16},"strategy":"generic"}}"#,
            r#"{"wait":{"job":3}}"#,
            r#"{"submit":{"model":{"name":"mobilenetv2","resolution":32},"strategy":"generic"}}"#,
            r#"{"wait":{"job":4}}"#,
        ]
        .join("\n");
        let responses = responses(&service, &input);
        assert_eq!(responses.len(), 8, "every line is answered");
        let failed = |response: &Response, px: &str| match response {
            Response::Result(outcome) => {
                assert!(!outcome.ok);
                let error = outcome.error.as_deref().unwrap_or_default();
                assert!(error.contains(px), "{error}");
            }
            other => panic!("expected a failed result, got {other:?}"),
        };
        failed(&responses[1], "0 px");
        match &responses[3] {
            Response::BatchResult { outcomes, .. } => {
                assert_eq!(outcomes.len(), 1);
                assert!(!outcomes[0].ok);
            }
            other => panic!("expected a batch result, got {other:?}"),
        }
        failed(&responses[5], "16 px");
        match &responses[7] {
            Response::Result(outcome) => assert!(outcome.ok, "the next valid request is answered"),
            other => panic!("expected a result, got {other:?}"),
        }
    }

    #[test]
    fn oversized_programs_get_an_error_outcome_and_the_connection_keeps_serving() {
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        // At 65536 px the generated program would need gigabytes; the
        // compiler refuses it at the instruction-memory bound instead of
        // aborting the process on a failed allocation.
        let input = [
            r#"{"submit":{"model":{"name":"resnet18","resolution":65536},"strategy":"generic"}}"#,
            r#"{"wait":{"job":1}}"#,
            r#"{"stats":{}}"#,
            r#"{"submit":{"model":{"name":"mobilenetv2","resolution":32},"strategy":"generic"}}"#,
            r#"{"wait":{"job":2}}"#,
        ]
        .join("\n");
        let responses = responses(&service, &input);
        assert_eq!(responses.len(), 5, "every line is answered");
        assert_eq!(responses[0], Response::Accepted { job: 1 });
        match &responses[1] {
            Response::Result(outcome) => {
                assert!(!outcome.ok);
                let error = outcome.error.as_deref().unwrap_or_default();
                assert!(error.contains("instruction memory"), "{error}");
            }
            other => panic!("expected a failed result, got {other:?}"),
        }
        assert!(matches!(&responses[2], Response::Stats { .. }), "{:?}", responses[2]);
        match &responses[4] {
            Response::Result(outcome) => assert!(outcome.ok, "the next valid request is answered"),
            other => panic!("expected a result, got {other:?}"),
        }
    }

    #[test]
    fn oversized_meshes_and_chip_counts_get_error_outcomes_and_the_connection_keeps_serving() {
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        // A 50000 x 50000 mesh barely changes the compile, but its link
        // table alone would need tens of gigabytes; so would the fabric of
        // 100000 chips. Validation refuses both before anything is sized.
        let mut huge_mesh = cimflow_arch::ArchConfig::paper_default();
        huge_mesh.system.chip.mesh = cimflow_arch::MeshDimensions::new(50_000, 50_000);
        let input = lines(&[
            Request::Submit(Box::new(
                EvalRequest::new("resnet18", 32, Strategy::GenericMapping).with_base(huge_mesh),
            )),
            Request::Wait { target: Target::Job(1), timeout_ms: None },
            Request::Submit(Box::new(
                EvalRequest::new("resnet18", 32, Strategy::GenericMapping).with_chip_count(100_000),
            )),
            Request::Wait { target: Target::Job(2), timeout_ms: None },
            Request::Submit(Box::new(EvalRequest::new(
                "mobilenetv2",
                32,
                Strategy::GenericMapping,
            ))),
            Request::Wait { target: Target::Job(3), timeout_ms: None },
        ]);
        let responses = responses(&service, &input);
        assert_eq!(responses.len(), 6, "every line is answered");
        for (response, field) in [(&responses[1], "chip.mesh"), (&responses[3], "chip_count")] {
            match response {
                Response::Result(outcome) => {
                    assert!(!outcome.ok);
                    let error = outcome.error.as_deref().unwrap_or_default();
                    assert!(error.contains(field) && error.contains("more than"), "{error}");
                }
                other => panic!("expected a failed result, got {other:?}"),
            }
        }
        match &responses[5] {
            Response::Result(outcome) => assert!(outcome.ok, "the next valid request is answered"),
            other => panic!("expected a result, got {other:?}"),
        }
    }

    #[test]
    fn overly_nested_lines_get_an_error_reply_and_the_connection_keeps_serving() {
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        let input = format!("{}\n{}\n", "[".repeat(200_000), r#"{"stats":{}}"#);
        let responses = responses(&service, &input);
        match &responses[0] {
            Response::Error { message } => assert!(message.contains("nesting"), "{message}"),
            other => panic!("expected an error reply, got {other:?}"),
        }
        assert!(matches!(&responses[1], Response::Stats { .. }));
    }

    #[test]
    fn over_long_lines_get_an_error_reply_and_the_connection_keeps_serving() {
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        // Larger than the cap and than any BufReader chunk, then a valid
        // request on the next line, then one exactly at the cap.
        let mut input = "x".repeat(3 * MAX_REQUEST_LINE_BYTES);
        input.push('\n');
        input.push_str("{\"stats\":{}}\r\n");
        input.push_str(&" ".repeat(MAX_REQUEST_LINE_BYTES - 12));
        input.push_str("{\"stats\":{}}");
        assert_eq!(input.len() - input.rfind('\n').unwrap() - 1, MAX_REQUEST_LINE_BYTES);
        let reader = BufReader::new(std::io::Cursor::new(input.into_bytes()));
        let responses = responses_from(&service, reader);
        assert_eq!(responses.len(), 3);
        match &responses[0] {
            Response::Error { message } => assert!(message.contains("longer than"), "{message}"),
            other => panic!("expected an error reply, got {other:?}"),
        }
        assert!(matches!(&responses[1], Response::Stats { .. }));
        assert!(matches!(&responses[2], Response::Stats { .. }));
    }

    #[test]
    fn bounded_waits_answer_status_within_the_deadline_without_consuming_ids() {
        use crate::{evaluate, CacheKey, EvalCache};
        use cimflow_arch::ArchConfig;
        use cimflow_compiler::SearchMode;
        use cimflow_nn::models;
        use std::sync::mpsc;
        use std::time::{Duration, Instant};

        let cache = EvalCache::new();
        let service = EvalService::with_cache(ServiceConfig::new().with_workers(1), cache.clone());
        // Hold the design point's in-flight cache marker so the worker
        // blocks deterministically (the marker is held before submit).
        let (go, release) = mpsc::channel();
        let (entered_tx, entered_rx) = mpsc::channel();
        let blocked_cache = cache.clone();
        let blocker = std::thread::spawn(move || {
            let arch = ArchConfig::paper_default();
            let model = models::mobilenet_v2(32);
            let key = CacheKey::of(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential);
            blocked_cache
                .get_or_insert_with(key, || {
                    entered_tx.send(()).expect("entered signal");
                    release.recv().expect("release signal");
                    evaluate(&arch, &model, Strategy::GenericMapping)
                })
                .expect("blocked evaluation succeeds");
        });
        entered_rx.recv().expect("blocker holds the marker");

        let mut connection = Connection::new(&service);
        let (response, _) = connection.handle(Request::Submit(Box::new(EvalRequest::new(
            "mobilenetv2",
            32,
            Strategy::GenericMapping,
        ))));
        assert_eq!(response, Response::Accepted { job: 1 });

        // The bounded wait returns the current status near its deadline —
        // the job would otherwise block this connection indefinitely.
        let started = Instant::now();
        let (response, shutdown) =
            connection.handle(Request::Wait { target: Target::Job(1), timeout_ms: Some(100) });
        let elapsed = started.elapsed();
        assert!(!shutdown);
        match response {
            Response::Status { state, completed, total } => {
                assert!(state == "queued" || state == "running", "live state, got {state}");
                assert_eq!((completed, total), (0, 1));
            }
            other => panic!("expected an expiry status, got {other:?}"),
        }
        assert!(elapsed >= Duration::from_millis(100), "the deadline is honored: {elapsed:?}");
        assert!(
            elapsed < Duration::from_secs(5),
            "the wait returns at the deadline, not at job completion: {elapsed:?}"
        );

        // The expired wait did not consume the id.
        let (response, _) = connection.handle(Request::Poll(Target::Job(1)));
        assert!(matches!(response, Response::Status { .. }));

        // Released, a bounded wait resolves like an unbounded one and
        // consumes the id.
        go.send(()).unwrap();
        let (response, _) =
            connection.handle(Request::Wait { target: Target::Job(1), timeout_ms: Some(60_000) });
        match response {
            Response::Result(outcome) => assert!(outcome.ok),
            other => panic!("expected a result, got {other:?}"),
        }
        let (response, _) = connection.handle(Request::Poll(Target::Job(1)));
        assert!(matches!(response, Response::Error { .. }), "the completed wait consumed the id");
        blocker.join().unwrap();
    }

    #[test]
    fn shutdown_request_stops_the_session_and_the_service() {
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        let input = lines(&[Request::Shutdown, Request::Stats]);
        let responses = responses(&service, &input);
        assert_eq!(responses, vec![Response::ShuttingDown], "no requests served past shutdown");
        assert!(service.submit(EvalRequest::new("resnet18", 32, Strategy::DpOptimized)).is_err());
    }
}
