//! The service core: request resolution over a shared, bounded
//! [`ArtifactStore`], single-flight coalescing of identical in-flight
//! requests, and per-kind latency accounting.

use std::collections::VecDeque;
use std::io;
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

use crate::inflight::{Entry, SingleFlight};
use crate::request::{RequestKind, ServeError, TuneSpec, TuningRequest, TuningResponse};

/// How a [`TuningService`] is built.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Driver worker threads each request's study fans its cells across
    /// (`0` is clamped to 1).
    pub threads: usize,
    /// Byte budget for the artifact store; `None` grows without bound.
    pub budget_bytes: Option<u64>,
    /// Spill directory to warm-start from. A missing directory is a normal
    /// cold start; a present-but-malformed one is an error.
    pub warm_start: Option<PathBuf>,
    /// Whether identical in-flight requests coalesce onto one execution
    /// (default `true`; disable only to measure the uncoalesced path —
    /// answers are bit-identical either way).
    pub coalesce: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            budget_bytes: None,
            warm_start: None,
            coalesce: true,
        }
    }
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

/// Shared serving-path counters: what the worker pool, admission queue, and
/// wire front end record, and what [`ServiceStats`] snapshots. All atomics —
/// the hot path never takes a lock except the per-kind latency histogram's.
#[derive(Debug, Default)]
pub(crate) struct ServeMetrics {
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

#[derive(Debug, Default)]
struct Counters {
    requests: u64,
    reports: u64,
    errors: u64,
}

/// What one study execution resolves to: the shared report (cheap to hand to
/// every coalesced follower) or the structured error the spec produced.
pub(crate) type FlightOutcome = Result<Arc<StudyReport>, ServeError>;

/// The long-running tuning service. See the crate docs for the front ends.
#[derive(Debug)]
pub struct TuningService {
    store: Arc<ArtifactStore>,
    threads: usize,
    warm_loaded: usize,
    coalesce: bool,
    counters: Mutex<Counters>,
    inflight: Arc<SingleFlight<FlightOutcome>>,
    /// Single-flight table for `artifact-get`: concurrent gets for the same
    /// `(stage, hash)` serialize one store export and share the payload
    /// `Arc` — a thundering herd of cold workers costs one encode.
    artifact_flights: Arc<SingleFlight<Option<Arc<Vec<u8>>>>>,
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
        let mut warm_loaded = 0;
        if let Some(dir) = &config.warm_start {
            if dir.exists() {
                warm_loaded = store.load_spill_report(dir)?.loaded;
            }
        }
        Ok(Self {
            store: Arc::new(store),
            threads: config.threads.max(1),
            warm_loaded,
            coalesce: config.coalesce,
            counters: Mutex::new(Counters::default()),
            inflight: Arc::new(SingleFlight::default()),
            artifact_flights: Arc::new(SingleFlight::default()),
            metrics: ServeMetrics::default(),
            started: Instant::now(),
            metrics_seq: AtomicU64::new(0),
            recent_traces: Mutex::new(VecDeque::new()),
        })
    }

    /// A service over an existing shared store.
    pub fn with_store(store: Arc<ArtifactStore>, threads: usize) -> Self {
        Self {
            store,
            threads: threads.max(1),
            warm_loaded: 0,
            coalesce: true,
            counters: Mutex::new(Counters::default()),
            inflight: Arc::new(SingleFlight::default()),
            artifact_flights: Arc::new(SingleFlight::default()),
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

    /// Joins the single-flight table for a study request's spec hash, or
    /// `None` when coalescing is disabled.
    pub(crate) fn join_flight(&self, request: &TuningRequest) -> Option<Entry<FlightOutcome>> {
        if !self.coalesce
            || matches!(
                request.kind,
                RequestKind::Stats
                    | RequestKind::Trace { .. }
                    | RequestKind::ArtifactGet { .. }
                    | RequestKind::ArtifactPut { .. }
                    | RequestKind::ArtifactList
            )
        {
            return None;
        }
        Some(self.inflight.join(request.spec_hash()))
    }

    /// Handles one parsed request.
    pub fn handle(&self, request: &TuningRequest) -> TuningResponse {
        let started = Instant::now();
        let response = match &request.kind {
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
                payload: self.artifact_get(request, stage, *hash),
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
            _ => {
                let _span = phase_trace::span("execute");
                // Direct callers are their own execution threads: the leader
                // computes inline, followers block on its flight.
                let outcome = match self.join_flight(request) {
                    Some(Entry::Follower(waiter)) => match waiter.wait() {
                        Some(outcome) => outcome,
                        // The leader abandoned (shed or panicked); compute
                        // for ourselves rather than failing the request.
                        None => self.resolve_outcome(request),
                    },
                    Some(Entry::Leader(completion)) => {
                        let outcome = self.resolve_outcome(request);
                        completion.fulfill(outcome.clone());
                        outcome
                    }
                    None => self.resolve_outcome(request),
                };
                self.response_from_outcome(request, outcome)
            }
        };
        self.finish_request(request.kind.name(), started, &response);
        response
    }

    /// Resolves one `artifact-get`: a store export behind the artifact
    /// single-flight table, so concurrent gets for the same `(stage, hash)`
    /// encode once and share the payload. Emits an
    /// `artifact-get-hit`/`artifact-get-miss` trace event either way.
    fn artifact_get(
        &self,
        request: &TuningRequest,
        stage: &str,
        hash: ContentHash,
    ) -> Option<Arc<Vec<u8>>> {
        if !self.coalesce {
            return self.export_payload(stage, hash);
        }
        match self.artifact_flights.join(request.spec_hash()) {
            Entry::Follower(waiter) => match waiter.wait() {
                Some(payload) => payload,
                // The leader abandoned; export for ourselves.
                None => self.export_payload(stage, hash),
            },
            Entry::Leader(completion) => {
                let payload = self.export_payload(stage, hash);
                completion.fulfill(payload.clone());
                payload
            }
        }
    }

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

    /// Counts a served response and records its latency; every front end
    /// calls this exactly once per request, whatever path executed it.
    pub(crate) fn finish_request(&self, kind: &str, started: Instant, response: &TuningResponse) {
        let mut counters = self.counters.lock();
        counters.requests += 1;
        match response {
            TuningResponse::Error { .. } => counters.errors += 1,
            TuningResponse::Report { .. } => counters.reports += 1,
            TuningResponse::Stats { .. }
            | TuningResponse::Trace { .. }
            | TuningResponse::ArtifactGet { .. }
            | TuningResponse::ArtifactPut { .. }
            | TuningResponse::ArtifactList { .. } => {}
        }
        drop(counters);
        self.metrics.record_latency(
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
        let mut counters = self.counters.lock();
        counters.requests += 1;
        counters.errors += 1;
    }

    /// Parses and handles one request line (what the NDJSON front end calls
    /// per line). Parse failures become structured error responses.
    pub fn respond(&self, line: &str) -> TuningResponse {
        let parsed = {
            let _span = phase_trace::span("parse");
            crate::request::parse_request(line)
        };
        match parsed {
            Ok(request) => self.handle(&request),
            Err(error_response) => {
                self.note_parse_error();
                *error_response
            }
        }
    }

    /// Resolves a study request to its report (or structured error). This is
    /// the expensive path; callers wrap it in a flight so identical
    /// concurrent requests run it once.
    pub(crate) fn resolve_outcome(&self, request: &TuningRequest) -> FlightOutcome {
        let spec = request
            .kind
            .spec()
            .expect("stats requests never reach resolution");
        let study = self.study_for(&request.kind, spec)?;
        Ok(Arc::new(run_study(&study, &self.store, self.threads)))
    }

    /// Builds the response for one request from a (possibly shared) outcome:
    /// the report is cloned per request so each response echoes its own id.
    pub(crate) fn response_from_outcome(
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
        let counters = self.counters.lock();
        let (requests, reports, errors) = (counters.requests, counters.reports, counters.errors);
        drop(counters);
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
            requests,
            reports,
            errors,
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
