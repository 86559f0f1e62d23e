//! The service core: the one request pipeline every front end runs,
//! request resolution over a shared, bounded [`ArtifactStore`],
//! single-flight coalescing of identical in-flight requests, and per-kind
//! latency accounting.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use phase_core::json::JsonValue;
use phase_core::{
    run_study, ArtifactStore, ComparisonPoint, ContentHash, ExperimentConfig, StoreStats,
    StudyMode, StudyReport, StudySpec,
};
use phase_metrics::LogHistogram;
use phase_runtime::TunerConfig;
use phase_sched::SimConfig;
use phase_workload::CatalogKind;

use crate::inflight::{Completion, Entry, SingleFlight};
use crate::pool::Executor;
use crate::request::{
    parse_request, RequestKind, ServeError, TuneSpec, TuningRequest, TuningResponse,
};

/// How a [`TuningService`] is built.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Driver worker threads each request's study fans its cells across
    /// (`0` is clamped to 1).
    pub threads: usize,
    /// Byte budget for the artifact store; `None` grows without bound.
    pub budget_bytes: Option<u64>,
    /// Spill directory to warm-start from. A missing directory, or a
    /// damaged or outdated spill, is a recorded cold start (what is intact
    /// still loads); only an I/O failure reading it is an error.
    pub warm_start: Option<PathBuf>,
}

impl ServiceConfig {
    /// A config with the given worker count and no budget.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }
}

/// The request kinds tracked per-kind by the serving counters, in wire
/// order; `kind_slot` maps a wire name onto an index into arrays of
/// [`KIND_NAMES`]`.len()`.
pub(crate) const KIND_NAMES: [&str; 8] = [
    "isolation",
    "marks",
    "comparison",
    "stats",
    "trace",
    "artifact-get",
    "artifact-put",
    "artifact-list",
];

/// Completed-request timelines kept for the `trace` request kind, oldest
/// evicted first.
const RECENT_TRACES: usize = 64;

pub(crate) fn kind_slot(name: &str) -> Option<usize> {
    KIND_NAMES.iter().position(|kind| *kind == name)
}

/// Shared serving-path counters: what the request pipeline, worker pool,
/// admission queue, and wire front end record, and what [`ServiceStats`]
/// snapshots. All atomics — the hot path never takes a lock except the
/// per-kind latency histogram's.
#[derive(Debug, Default)]
pub(crate) struct ServeMetrics {
    requests: AtomicU64,
    reports: AtomicU64,
    errors: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) connections_active: AtomicU64,
    pub(crate) connections_failed: AtomicU64,
    pub(crate) connections_shed: AtomicU64,
    pub(crate) overlong_lines: AtomicU64,
    pub(crate) queue_depth: AtomicU64,
    pub(crate) queue_hiwater: AtomicU64,
    pub(crate) active_jobs: AtomicU64,
    admitted_by_kind: [AtomicU64; KIND_NAMES.len()],
    shed_by_kind: [AtomicU64; KIND_NAMES.len()],
    latency_by_kind: [Mutex<Option<LogHistogram>>; KIND_NAMES.len()],
}

impl ServeMetrics {
    pub(crate) fn note_admitted(&self, kind: &str) {
        if let Some(slot) = kind_slot(kind) {
            self.admitted_by_kind[slot].fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn note_shed(&self, kind: &str) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = kind_slot(kind) {
            self.shed_by_kind[slot].fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_latency(&self, kind: &str, elapsed_ns: u64) {
        if let Some(slot) = kind_slot(kind) {
            self.latency_by_kind[slot]
                .lock()
                .get_or_insert_with(LogHistogram::new)
                .record(elapsed_ns);
        }
    }
}

/// Per-kind admission counters in a [`ServiceStats`] snapshot.
#[derive(Debug, Clone)]
pub struct KindAdmission {
    /// The request kind's wire name.
    pub kind: &'static str,
    /// Requests of this kind admitted for execution.
    pub admitted: u64,
    /// Requests of this kind shed by the bounded queue.
    pub shed: u64,
}

/// Per-kind latency summary in a [`ServiceStats`] snapshot (nanoseconds,
/// from the fixed-bucket log-scale histogram).
#[derive(Debug, Clone)]
pub struct KindLatency {
    /// The request kind's wire name.
    pub kind: &'static str,
    /// Requests measured.
    pub count: u64,
    /// Median latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile latency, nanoseconds.
    pub p999_ns: u64,
    /// Worst latency, nanoseconds.
    pub max_ns: u64,
}

/// The serving-path side of a [`ServiceStats`] snapshot: connection and
/// admission counters, coalescing, queue gauges, per-kind latency.
#[derive(Debug, Clone, Default)]
pub struct ServingStats {
    /// Requests answered from another request's in-flight execution.
    pub coalesced: u64,
    /// Requests shed by the bounded admission queue (`overloaded` errors).
    pub shed: u64,
    /// Distinct spec hashes currently in flight.
    pub inflight: u64,
    /// Connections accepted by the TCP front end.
    pub connections_accepted: u64,
    /// Connections currently being served.
    pub connections_active: u64,
    /// Connections dropped because the stream could not be split
    /// (`try_clone` failure) — each got a best-effort error line.
    pub connections_failed: u64,
    /// Connections shed because the pending-connection queue was full.
    pub connections_shed: u64,
    /// Request lines rejected (and connections closed) for exceeding the
    /// line-length cap.
    pub overlong_lines: u64,
    /// Requests currently queued for the executor pool.
    pub queue_depth: u64,
    /// High-water mark of the executor queue depth.
    pub queue_hiwater: u64,
    /// Requests currently executing on the executor pool.
    pub active_jobs: u64,
    /// Per-kind admitted/shed counters.
    pub admission: Vec<KindAdmission>,
    /// Per-kind latency summaries (only kinds that served requests).
    pub latency: Vec<KindLatency>,
}

impl ServingStats {
    /// The serving stats as a JSON document.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("coalesced", self.coalesced)
            .field("shed", self.shed)
            .field("inflight", self.inflight)
            .field(
                "connections",
                JsonValue::object()
                    .field("accepted", self.connections_accepted)
                    .field("active", self.connections_active)
                    .field("failed", self.connections_failed)
                    .field("shed", self.connections_shed),
            )
            .field(
                "queue",
                JsonValue::object()
                    .field("depth", self.queue_depth)
                    .field("hiwater", self.queue_hiwater)
                    .field("active_jobs", self.active_jobs),
            )
            .field("overlong_lines", self.overlong_lines)
            .field(
                "admission",
                self.admission
                    .iter()
                    .map(|kind| {
                        JsonValue::object()
                            .field("kind", kind.kind)
                            .field("admitted", kind.admitted)
                            .field("shed", kind.shed)
                    })
                    .collect::<Vec<_>>(),
            )
            .field(
                "latency",
                self.latency
                    .iter()
                    .map(|kind| {
                        JsonValue::object()
                            .field("kind", kind.kind)
                            .field("count", kind.count)
                            .field("p50_ns", kind.p50_ns)
                            .field("p99_ns", kind.p99_ns)
                            .field("p999_ns", kind.p999_ns)
                            .field("max_ns", kind.max_ns)
                    })
                    .collect::<Vec<_>>(),
            )
    }
}

/// The service's counters: request totals, the serving-path snapshot, plus a
/// consistent store snapshot.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Requests handled (reports + stats + errors).
    pub requests: u64,
    /// Requests answered with a report.
    pub reports: u64,
    /// Requests answered with a structured error.
    pub errors: u64,
    /// Artifacts loaded at warm start.
    pub warm_loaded: usize,
    /// The store's byte budget, if bounded.
    pub budget_bytes: Option<u64>,
    /// The serving path: connections, admission, coalescing, latency.
    pub serving: ServingStats,
    /// Consistent per-stage store counters (from
    /// [`ArtifactStore::snapshot`]).
    pub store: StoreStats,
}

impl ServiceStats {
    /// Total bytes resident in the store.
    pub fn resident_bytes(&self) -> u64 {
        self.store.resident_bytes()
    }

    /// Total store evictions.
    pub fn evictions(&self) -> u64 {
        self.store.total_evictions()
    }

    /// The stats as a JSON document.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("requests", self.requests)
            .field("reports", self.reports)
            .field("errors", self.errors)
            .field("warm_loaded", self.warm_loaded)
            .field(
                "budget_bytes",
                self.budget_bytes
                    .map(JsonValue::from)
                    .unwrap_or(JsonValue::Null),
            )
            .field("resident_bytes", self.resident_bytes())
            .field("evictions", self.evictions())
            .field("serving", self.serving.to_json())
            .field("store", self.store.to_json())
    }
}

/// What one study execution resolves to: the shared report (cheap to hand to
/// every coalesced follower) or the structured error the spec produced.
pub(crate) type FlightOutcome = Result<Arc<StudyReport>, ServeError>;

/// A study request on its way to the pipeline's execute step: the owned
/// request, the single-flight completion to publish through when the
/// request leads its flight, and when the request arrived.
pub(crate) struct Job {
    pub(crate) request: TuningRequest,
    pub(crate) completion: Option<Completion<FlightOutcome>>,
    pub(crate) started: Instant,
}

/// The long-running tuning service. See the crate docs for the front ends.
#[derive(Debug)]
pub struct TuningService {
    store: Arc<ArtifactStore>,
    threads: usize,
    warm_loaded: usize,
    inflight: Arc<SingleFlight<FlightOutcome>>,
    metrics: ServeMetrics,
    started: Instant,
    metrics_seq: AtomicU64,
    recent_traces: Mutex<VecDeque<(String, Arc<Vec<phase_trace::TraceRecord>>)>>,
}

impl TuningService {
    /// Builds a service: a fresh store (bounded if the config names a
    /// budget), optionally pre-warmed from a spill directory.
    pub fn new(config: ServiceConfig) -> io::Result<Self> {
        let store = match config.budget_bytes {
            Some(bytes) => ArtifactStore::with_budget(bytes),
            None => ArtifactStore::new(),
        };
        let warm_loaded = match &config.warm_start {
            Some(dir) if dir.exists() => store.load_spill_report(dir)?.loaded,
            _ => 0,
        };
        Ok(Self {
            warm_loaded,
            ..Self::with_store(Arc::new(store), config.threads)
        })
    }

    /// A service over an existing shared store.
    pub fn with_store(store: Arc<ArtifactStore>, threads: usize) -> Self {
        Self {
            store,
            threads: threads.max(1),
            warm_loaded: 0,
            inflight: Arc::new(SingleFlight::default()),
            metrics: ServeMetrics::default(),
            started: Instant::now(),
            metrics_seq: AtomicU64::new(0),
            recent_traces: Mutex::new(VecDeque::new()),
        }
    }

    /// Nanoseconds since the service was built (`service-metrics` lines
    /// carry this so scrapers can detect restarts).
    pub fn uptime_ns(&self) -> u64 {
        self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// The next `service-metrics` sequence number (monotonic from 0, so
    /// scrapers can detect dropped lines).
    pub fn next_metrics_seq(&self) -> u64 {
        self.metrics_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Remembers a completed request's timeline for later `trace` requests;
    /// the cache is bounded, oldest evicted first. Empty timelines are not
    /// cached (tracing was off or the records were already overwritten).
    pub fn cache_trace(&self, id: &str, records: Vec<phase_trace::TraceRecord>) {
        if records.is_empty() {
            return;
        }
        let mut traces = self.recent_traces.lock();
        traces.retain(|(cached, _)| cached != id);
        while traces.len() >= RECENT_TRACES {
            traces.pop_front();
        }
        traces.push_back((id.to_string(), Arc::new(records)));
    }

    /// The cached timeline of a completed request, if still resident.
    pub fn recent_trace(&self, id: &str) -> Option<Arc<Vec<phase_trace::TraceRecord>>> {
        let traces = self.recent_traces.lock();
        traces
            .iter()
            .rev()
            .find(|(cached, _)| cached == id)
            .map(|(_, records)| Arc::clone(records))
    }

    /// The shared store behind the service.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// The shared serving-path counters (what the wire front end records
    /// connection and admission events into).
    pub(crate) fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Handles one parsed request on the calling thread. The inline kinds
    /// are answered by reference; only a study request is copied, into its
    /// job.
    pub fn handle(&self, request: &TuningRequest) -> TuningResponse {
        self.pipeline(Cow::Borrowed(request), Instant::now(), None)
    }

    /// Parses and handles one request line on the calling thread (what
    /// [`serve_lines`](crate::serve_lines) calls per line). Parse failures
    /// become structured error responses.
    pub fn respond(&self, line: &str) -> TuningResponse {
        self.respond_on(line, None)
    }

    /// Parses one request line and runs it through the
    /// [`pipeline`](Self::pipeline), executing studies on `executor` when
    /// one is given.
    pub(crate) fn respond_on(&self, line: &str, executor: Option<&Executor>) -> TuningResponse {
        let started = Instant::now();
        let parsed = {
            let _span = phase_trace::span("parse");
            parse_request(line)
        };
        match parsed {
            Ok(request) => self.pipeline(Cow::Owned(request), started, executor),
            Err(error_response) => {
                self.note_parse_error();
                *error_response
            }
        }
    }

    /// The one request pipeline every front end runs. Stats, trace and
    /// artifact requests are answered here. A study request joins its
    /// flight: a follower waits for the leader's outcome in a
    /// `coalesced_wait` span and takes no execution slot; a leader (or a
    /// follower whose leader was shed) becomes a job for the execute step,
    /// which runs on the calling thread without an executor and on an
    /// executor worker with one.
    fn pipeline(
        &self,
        request: Cow<'_, TuningRequest>,
        started: Instant,
        executor: Option<&Executor>,
    ) -> TuningResponse {
        if let Some(response) = self.answer_inline(&request) {
            self.finish_request(request.kind.name(), started, &response);
            return response;
        }
        let request = request.into_owned();
        let completion = match self.inflight.join(request.spec_hash()) {
            Entry::Leader(completion) => Some(completion),
            Entry::Follower(waiter) => {
                let outcome = {
                    let _span = phase_trace::span("coalesced_wait");
                    waiter.wait()
                };
                if let Some(outcome) = outcome {
                    let response = self.response_from_outcome(&request, outcome);
                    self.finish_request(request.kind.name(), started, &response);
                    return response;
                }
                // The leader was shed or died; execute for ourselves.
                None
            }
        };
        let job = Job {
            request,
            completion,
            started,
        };
        match executor {
            Some(executor) => executor.run(job),
            None => self.execute(job),
        }
    }

    /// The answer to a stats, trace or artifact request; `None` for a study
    /// request, which the pipeline executes.
    fn answer_inline(&self, request: &TuningRequest) -> Option<TuningResponse> {
        Some(match &request.kind {
            RequestKind::Stats => TuningResponse::Stats {
                id: request.id.clone(),
                stats: self.stats(),
            },
            RequestKind::Trace { target } => TuningResponse::Trace {
                id: request.id.clone(),
                target: target.clone(),
                events: self.recent_trace(target),
            },
            RequestKind::ArtifactGet { stage, hash } => TuningResponse::ArtifactGet {
                id: request.id.clone(),
                stage: stage.clone(),
                hash: *hash,
                payload: self.export_payload(stage, *hash),
            },
            RequestKind::ArtifactPut {
                stage,
                hash,
                payload,
            } => match self.store.import_artifact(stage, *hash, payload) {
                Ok(admitted) => {
                    phase_trace::event_detail("artifact-put", u64::from(admitted), || {
                        format!("{stage}:{hash}")
                    });
                    TuningResponse::ArtifactPut {
                        id: request.id.clone(),
                        stage: stage.clone(),
                        hash: *hash,
                        admitted,
                    }
                }
                Err(error) => TuningResponse::Error {
                    id: Some(request.id.clone()),
                    error: ServeError {
                        code: "bad-payload",
                        message: format!("artifact payload rejected: {error}"),
                    },
                },
            },
            RequestKind::ArtifactList => TuningResponse::ArtifactList {
                id: request.id.clone(),
                stages: self.store.artifact_keys(),
            },
            RequestKind::Isolation(_) | RequestKind::Marks(_) | RequestKind::Comparison(_) => {
                return None
            }
        })
    }

    /// Exports one artifact for an `artifact-get`, emitting an
    /// `artifact-get-hit`/`artifact-get-miss` trace event either way.
    fn export_payload(&self, stage: &str, hash: ContentHash) -> Option<Arc<Vec<u8>>> {
        let payload = self.store.export_artifact(stage, hash).map(Arc::new);
        match &payload {
            Some(_) => {
                phase_trace::event_detail("artifact-get-hit", 0, || format!("{stage}:{hash}"))
            }
            None => phase_trace::event_detail("artifact-get-miss", 0, || format!("{stage}:{hash}")),
        }
        payload
    }

    /// The pipeline's execute step: resolves a study job under a panic
    /// guard, publishes the outcome to the job's flight, and counts the
    /// response. It runs on the calling thread for a direct request and on
    /// an executor worker for a TCP one; either way a panicking study costs
    /// the client one structured `internal` error, not the thread.
    pub(crate) fn execute(&self, job: Job) -> TuningResponse {
        let outcome = {
            let _span = phase_trace::span("execute");
            catch_unwind(AssertUnwindSafe(|| self.resolve_outcome(&job.request))).unwrap_or_else(
                |panic| {
                    Err(ServeError::internal(format!(
                        "request execution panicked: {}",
                        panic_message(&*panic)
                    )))
                },
            )
        };
        if let Some(completion) = job.completion {
            completion.fulfill(outcome.clone());
        }
        let response = {
            let _span = phase_trace::span("respond");
            self.response_from_outcome(&job.request, outcome)
        };
        self.finish_request(job.request.kind.name(), job.started, &response);
        response
    }

    /// Counts a served response and records its latency; the pipeline calls
    /// this exactly once per request, whatever path answered it.
    pub(crate) fn finish_request(&self, kind: &str, started: Instant, response: &TuningResponse) {
        let metrics = &self.metrics;
        metrics.requests.fetch_add(1, Ordering::Relaxed);
        match response {
            TuningResponse::Error { .. } => metrics.errors.fetch_add(1, Ordering::Relaxed),
            TuningResponse::Report { .. } => metrics.reports.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        metrics.record_latency(
            kind,
            started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
        );
    }

    /// A counted structured error for input the parser never even sees
    /// (e.g. a line that is not valid UTF-8).
    pub(crate) fn respond_malformed(&self, message: &str) -> TuningResponse {
        self.note_parse_error();
        TuningResponse::Error {
            id: None,
            error: ServeError {
                code: "bad-json",
                message: message.to_string(),
            },
        }
    }

    /// Counts a request that failed before resolution (parse errors).
    pub(crate) fn note_parse_error(&self) {
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        self.metrics.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Resolves a study request to its report (or structured error). This is
    /// the expensive path; the pipeline wraps it in a flight so identical
    /// concurrent requests run it once.
    fn resolve_outcome(&self, request: &TuningRequest) -> FlightOutcome {
        let spec = request
            .kind
            .spec()
            .expect("stats requests never reach resolution");
        let study = self.study_for(&request.kind, spec)?;
        Ok(Arc::new(run_study(&study, &self.store, self.threads)))
    }

    /// Builds the response for one request from a (possibly shared) outcome:
    /// the report is cloned per request so each response echoes its own id.
    fn response_from_outcome(
        &self,
        request: &TuningRequest,
        outcome: FlightOutcome,
    ) -> TuningResponse {
        match outcome {
            Ok(report) => TuningResponse::Report {
                id: request.id.clone(),
                kind: request.kind.name(),
                spec_hash: request.spec_hash(),
                report: (*report).clone(),
            },
            Err(error) => TuningResponse::Error {
                id: Some(request.id.clone()),
                error,
            },
        }
    }

    /// The study a request resolves to. The study name/title are derived
    /// from the spec alone, so identical requests produce bit-identical
    /// reports.
    fn study_for(&self, kind: &RequestKind, spec: &TuneSpec) -> Result<StudySpec, ServeError> {
        let catalog_label = format!(
            "{}[scale={},seed={}]",
            spec.catalog.kind.name(),
            spec.catalog.scale,
            spec.catalog.seed
        );
        match kind {
            RequestKind::Isolation(_) => Ok(StudySpec {
                name: "serve_isolation".into(),
                title: format!(
                    "isolation tuning — {catalog_label} / {} / {}",
                    spec.machine_name, spec.pipeline.marking
                ),
                mode: StudyMode::Isolation {
                    catalog: spec.catalog,
                    machine: spec.machine.clone(),
                    pipeline: spec.pipeline,
                    tuner: TunerConfig {
                        ipc_threshold: spec.ipc_threshold,
                        ..TunerConfig::default()
                    },
                    sim: SimConfig::default(),
                },
            }),
            RequestKind::Marks(_) => Ok(StudySpec {
                name: "serve_marks".into(),
                title: format!(
                    "mark statistics — {catalog_label} / {} / {}",
                    spec.machine_name, spec.pipeline.marking
                ),
                mode: StudyMode::MarkStatsPerBenchmark {
                    catalog: spec.catalog,
                    machine: spec.machine.clone(),
                    pipeline: spec.pipeline,
                },
            }),
            RequestKind::Comparison(_) => {
                if spec.catalog.kind != CatalogKind::Standard {
                    return Err(ServeError {
                        code: "bad-request",
                        message: format!(
                            "comparison requests run the standard catalogue; got '{}'",
                            spec.catalog.kind.name()
                        ),
                    });
                }
                if spec.catalog_seed_explicit {
                    return Err(ServeError {
                        code: "bad-request",
                        message: "comparison requests derive their catalogue from \
                                  workload_seed; leave catalog.seed unset"
                            .to_string(),
                    });
                }
                // The comparison catalogue really is keyed by workload_seed
                // (one seed drives generation and queueing); the title says
                // so rather than echoing the unused catalog default.
                let comparison_label = format!(
                    "standard[scale={},seed={}]",
                    spec.catalog.scale, spec.workload_seed
                );
                Ok(StudySpec {
                    name: "serve_comparison".into(),
                    title: format!(
                        "baseline vs. tuned — {comparison_label} / {} / {}",
                        spec.machine_name, spec.pipeline.marking
                    ),
                    mode: StudyMode::Comparison {
                        points: vec![ComparisonPoint {
                            label: format!("{} slots={}", spec.pipeline.marking, spec.slots),
                            config: ExperimentConfig {
                                machine: spec.machine.clone(),
                                pipeline: spec.pipeline,
                                tuner: TunerConfig {
                                    ipc_threshold: spec.ipc_threshold,
                                    ..TunerConfig::default()
                                },
                                sim: SimConfig {
                                    horizon_ns: Some(spec.horizon_ns),
                                    ..SimConfig::default()
                                },
                                workload_slots: spec.slots,
                                jobs_per_slot: spec.jobs_per_slot,
                                workload_seed: spec.workload_seed,
                                catalog_scale: spec.catalog.scale,
                                threads: self.threads,
                            },
                        }],
                    },
                })
            }
            RequestKind::Stats
            | RequestKind::Trace { .. }
            | RequestKind::ArtifactGet { .. }
            | RequestKind::ArtifactPut { .. }
            | RequestKind::ArtifactList => {
                unreachable!("inline-answered kinds never reach study_for")
            }
        }
    }

    /// The service counters plus a consistent store snapshot.
    pub fn stats(&self) -> ServiceStats {
        let metrics = &self.metrics;
        let admission = KIND_NAMES
            .iter()
            .enumerate()
            .map(|(slot, kind)| KindAdmission {
                kind,
                admitted: metrics.admitted_by_kind[slot].load(Ordering::Relaxed),
                shed: metrics.shed_by_kind[slot].load(Ordering::Relaxed),
            })
            .collect();
        let latency = KIND_NAMES
            .iter()
            .enumerate()
            .filter_map(|(slot, kind)| {
                let guard = metrics.latency_by_kind[slot].lock();
                let histogram = guard.as_ref()?;
                let (p50_ns, p99_ns, p999_ns) = histogram.p50_p99_p999();
                Some(KindLatency {
                    kind,
                    count: histogram.count(),
                    p50_ns,
                    p99_ns,
                    p999_ns,
                    max_ns: histogram.max(),
                })
            })
            .collect();
        ServiceStats {
            requests: metrics.requests.load(Ordering::Relaxed),
            reports: metrics.reports.load(Ordering::Relaxed),
            errors: metrics.errors.load(Ordering::Relaxed),
            warm_loaded: self.warm_loaded,
            budget_bytes: self.store.budget_bytes(),
            serving: ServingStats {
                coalesced: self.inflight.coalesced(),
                shed: metrics.shed.load(Ordering::Relaxed),
                inflight: self.inflight.len(),
                connections_accepted: metrics.connections_accepted.load(Ordering::Relaxed),
                connections_active: metrics.connections_active.load(Ordering::Relaxed),
                connections_failed: metrics.connections_failed.load(Ordering::Relaxed),
                connections_shed: metrics.connections_shed.load(Ordering::Relaxed),
                overlong_lines: metrics.overlong_lines.load(Ordering::Relaxed),
                queue_depth: metrics.queue_depth.load(Ordering::Relaxed),
                queue_hiwater: metrics.queue_hiwater.load(Ordering::Relaxed),
                active_jobs: metrics.active_jobs.load(Ordering::Relaxed),
                admission,
                latency,
            },
            store: self.store.snapshot(),
        }
    }

    /// Spills the store's serializable stages to `dir` (see
    /// [`ArtifactStore::spill_to_dir`]); a service restarted with
    /// [`ServiceConfig::warm_start`] pointing there answers warm.
    pub fn spill_to_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.store.spill_to_dir(dir)
    }
}

/// The panic payload's message, when it carries one (`panic!("...")` and
/// `assert!` produce `&str` or `String` payloads; anything else is opaque).
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    let text = panic.downcast_ref::<&str>().copied();
    text.or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;

    const MARKS: &str =
        "{\"id\": \"m\", \"kind\": \"marks\", \"catalog\": {\"scale\": 0.04, \"seed\": 7}}";

    #[test]
    fn a_panicking_study_on_the_direct_path_answers_internal() {
        let service = TuningService::new(ServiceConfig::with_threads(1)).expect("cold start");
        // A `stats` job is never supposed to reach resolution, so the
        // resolver's invariant check panics inside the execute step.
        let response = service.execute(Job {
            request: TuningRequest::new("boom", RequestKind::Stats),
            completion: None,
            started: Instant::now(),
        });
        let TuningResponse::Error { id, error } = response else {
            panic!("expected a structured error, got {response:?}");
        };
        assert_eq!(id.as_deref(), Some("boom"));
        assert_eq!(error.code, "internal");
        assert!(
            error.message.contains("panicked")
                && error
                    .message
                    .contains("stats requests never reach resolution"),
            "the error names the panic: {}",
            error.message
        );
        // The same service keeps answering.
        assert!(matches!(
            service.respond(MARKS),
            TuningResponse::Report { .. }
        ));
        assert_eq!(service.stats().errors, 1);
    }

    #[test]
    fn trace_requests_check_expect_hash() {
        let service = TuningService::new(ServiceConfig::with_threads(1)).expect("cold start");
        let trace = "{\"id\": \"t\", \"kind\": \"trace\", \"target\": \"x\"";
        let hash = parse_request(&format!("{trace}}}"))
            .expect("a trace request parses")
            .spec_hash();
        let right = service.respond(&format!("{trace}, \"expect_hash\": \"{hash}\"}}"));
        assert!(
            matches!(&right, TuningResponse::Trace { target, .. } if target == "x"),
            "the right hash gets the trace answer: {right:?}"
        );
        let wrong = service.respond(&format!(
            "{trace}, \"expect_hash\": \"00000000000000000000000000000000\"}}"
        ));
        let TuningResponse::Error { error, .. } = wrong else {
            panic!("expected a structured error, got {wrong:?}");
        };
        assert_eq!(error.code, "hash-mismatch");
    }
}
