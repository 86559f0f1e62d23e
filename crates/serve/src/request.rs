//! The service's wire schema: requests, responses, and structured errors.
//!
//! Requests and responses are JSON documents (one per line on the NDJSON
//! front end) built on `phase_core::json`. Parsing is strict: unknown
//! fields, missing values, and type mismatches all produce a structured
//! [`ServeError`] naming what was wrong, and a client-supplied
//! `expect_hash` that disagrees with the server-computed spec hash is
//! rejected before any work is done. Successful responses carry only
//! deterministic content (the spec hash and the study rows) so a request
//! replayed on any thread count — or against a warm cache — produces
//! bit-identical bytes.

use phase_amp::MachineSpec;
use phase_core::json::{parse, JsonValue};
use phase_core::pack::{base64_decode, base64_encode, fnv64};
use phase_core::{
    ContentHash, Fingerprint, PipelineConfig, StableHasher, StudyReport, SPILL_STAGES,
};
use phase_marking::MarkingConfig;
use phase_workload::{CatalogKind, CatalogSpec};

use crate::service::ServiceStats;

/// A structured service error: a short machine-readable code plus a human
/// message. Errors are *responses*, not failures — the request loop answers
/// them and keeps serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// Machine-readable error code (`bad-json`, `bad-request`,
    /// `unknown-field`, `unknown-kind`, `hash-mismatch`, `bad-payload` when
    /// an artifact payload is not valid base64 or does not decode as an
    /// artifact; from the TCP front end also `overloaded` when the bounded
    /// queue sheds a request or connection, `line-too-long` when a request
    /// line exceeds the cap, and `connection-failed` when a stream could not
    /// be split for reading; on any front end, `internal` when a study
    /// execution panics).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl ServeError {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// An `internal` error: a study execution panicked or its worker died.
    pub(crate) fn internal(message: impl Into<String>) -> Self {
        Self::new("internal", message)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServeError {}

/// Everything a tuning request can configure: the workload catalogue, the
/// target machine, the static pipeline, the dynamic tuner threshold, and the
/// comparison workload shape.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneSpec {
    /// The catalogue to tune (family, scale, generation seed).
    pub catalog: CatalogSpec,
    /// The wire name of the machine (`core2-quad` or `three-core`).
    pub machine_name: String,
    /// The resolved machine.
    pub machine: MachineSpec,
    /// The static pipeline (marking technique; typing stays at the paper's
    /// profile-guided default).
    pub pipeline: PipelineConfig,
    /// The dynamic tuner's IPC-difference threshold `δ`.
    pub ipc_threshold: f64,
    /// Simulation horizon for comparison requests, nanoseconds.
    pub horizon_ns: f64,
    /// Workload slots for comparison requests.
    pub slots: usize,
    /// Jobs queued per slot for comparison requests.
    pub jobs_per_slot: usize,
    /// Workload construction seed for comparison requests (also the seed
    /// their catalogue is generated from — the harness keys both by one
    /// value).
    pub workload_seed: u64,
    /// Whether the request set `catalog.seed` explicitly. Not part of the
    /// spec identity (it never survives to resolution): comparison requests
    /// reject it, because their catalogue seed *is* `workload_seed` and a
    /// silently ignored knob would be a lie on the wire.
    pub catalog_seed_explicit: bool,
}

impl Default for TuneSpec {
    fn default() -> Self {
        Self {
            catalog: CatalogSpec::standard(0.05, 7),
            machine_name: "core2-quad".to_string(),
            machine: MachineSpec::core2_quad_amp(),
            pipeline: PipelineConfig::paper_best(),
            ipc_threshold: 0.2,
            horizon_ns: 4_000_000.0,
            slots: 6,
            jobs_per_slot: 1,
            workload_seed: 0xC60_2011,
            catalog_seed_explicit: false,
        }
    }
}

impl Fingerprint for TuneSpec {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("tune-spec");
        self.catalog.fingerprint(h);
        self.machine.fingerprint(h);
        self.pipeline.fingerprint(h);
        h.write_f64(self.ipc_threshold);
        h.write_f64(self.horizon_ns);
        h.write_usize(self.slots);
        h.write_usize(self.jobs_per_slot);
        h.write_u64(self.workload_seed);
    }
}

/// What a request asks the service to do.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Per-benchmark isolation tuning under the phase tuner (Table 1's
    /// shape): one row per benchmark with switches, runtime, marks.
    Isolation(TuneSpec),
    /// Static mark statistics per benchmark (no simulation).
    Marks(TuneSpec),
    /// A baseline-versus-tuned comparison over a queued workload
    /// (Figure 6–8's shape): one row with throughput/fairness deltas.
    Comparison(TuneSpec),
    /// The service's counters (requests, store hits/misses/evictions,
    /// resident bytes). Not content-addressed; never cached.
    Stats,
    /// The recorded timeline of a completed request (looked up by that
    /// request's id in the bounded recent-trace cache). Answered inline like
    /// stats; only meaningful while tracing is enabled.
    Trace {
        /// The id of the completed request whose timeline is wanted.
        target: String,
    },
    /// Fetch one artifact from the service's store by content hash — the
    /// read side of the network artifact cache. Answered inline (no study
    /// resolution).
    ArtifactGet {
        /// The store stage (one of [`SPILL_STAGES`]).
        stage: String,
        /// The artifact's content hash.
        hash: ContentHash,
    },
    /// Offer one artifact to the service's store — the write side of the
    /// network cache. The payload is a base64 phase-pack record; admission
    /// is charged against the service's byte budget like any computed
    /// artifact.
    ArtifactPut {
        /// The store stage (one of [`SPILL_STAGES`]).
        stage: String,
        /// The artifact's content hash (the key it is admitted under).
        hash: ContentHash,
        /// The decoded phase-pack payload.
        payload: Vec<u8>,
    },
    /// Inventory of every resident artifact key, per stage — what a worker
    /// walks to warm itself from this service. Answered inline.
    ArtifactList,
}

impl RequestKind {
    /// The wire name of this kind.
    pub fn name(&self) -> &'static str {
        match self {
            RequestKind::Isolation(_) => "isolation",
            RequestKind::Marks(_) => "marks",
            RequestKind::Comparison(_) => "comparison",
            RequestKind::Stats => "stats",
            RequestKind::Trace { .. } => "trace",
            RequestKind::ArtifactGet { .. } => "artifact-get",
            RequestKind::ArtifactPut { .. } => "artifact-put",
            RequestKind::ArtifactList => "artifact-list",
        }
    }

    /// The tuning spec, for kinds that carry one.
    pub fn spec(&self) -> Option<&TuneSpec> {
        match self {
            RequestKind::Isolation(spec)
            | RequestKind::Marks(spec)
            | RequestKind::Comparison(spec) => Some(spec),
            RequestKind::Stats
            | RequestKind::Trace { .. }
            | RequestKind::ArtifactGet { .. }
            | RequestKind::ArtifactPut { .. }
            | RequestKind::ArtifactList => None,
        }
    }
}

/// One tuning request.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningRequest {
    /// Client-chosen request id, echoed in the response.
    pub id: String,
    /// What to do.
    pub kind: RequestKind,
}

impl TuningRequest {
    /// A request of the given kind with the given id.
    pub fn new(id: impl Into<String>, kind: RequestKind) -> Self {
        Self {
            id: id.into(),
            kind,
        }
    }

    /// The content hash of the request's resolved spec (kind + every knob).
    /// Identical hashes mean identical responses; this is what `expect_hash`
    /// is checked against and what the response echoes as `spec_hash`.
    pub fn spec_hash(&self) -> ContentHash {
        let mut hasher = StableHasher::new();
        hasher.write_str("tuning-request");
        hasher.write_str(self.kind.name());
        if let Some(spec) = self.kind.spec() {
            spec.fingerprint(&mut hasher);
        }
        // Artifact requests have no TuneSpec; their identity is the target
        // artifact (plus the payload's checksum for puts, so replacing an
        // artifact's bytes is a distinct request).
        match &self.kind {
            RequestKind::ArtifactGet { stage, hash } => {
                hasher.write_str(stage);
                hash.fingerprint(&mut hasher);
            }
            RequestKind::ArtifactPut {
                stage,
                hash,
                payload,
            } => {
                hasher.write_str(stage);
                hash.fingerprint(&mut hasher);
                hasher.write_u64(fnv64(payload));
            }
            _ => {}
        }
        hasher.finish()
    }
}

/// The service's answer to one request.
#[derive(Debug, Clone)]
pub enum TuningResponse {
    /// A resolved tuning report. `to_json` renders only deterministic
    /// content (no timings, no cache counters), so identical requests yield
    /// bit-identical response bytes whatever the thread count or cache
    /// temperature.
    Report {
        /// Echo of the request id.
        id: String,
        /// The request kind's wire name.
        kind: &'static str,
        /// Content hash of the resolved spec.
        spec_hash: ContentHash,
        /// The study report the request resolved to.
        report: StudyReport,
    },
    /// The service counters.
    Stats {
        /// Echo of the request id.
        id: String,
        /// The counters.
        stats: ServiceStats,
    },
    /// A recorded request timeline from the recent-trace cache. `found` is
    /// false (with an empty timeline) when the target id is unknown — e.g.
    /// tracing was off, or the trace was evicted from the bounded cache.
    Trace {
        /// Echo of the request id.
        id: String,
        /// The completed request id the timeline belongs to.
        target: String,
        /// The timeline records, in logical `(trace, lane, scope, seq)`
        /// order; shared so a cached timeline is cloned per response cheaply.
        events: Option<std::sync::Arc<Vec<phase_trace::TraceRecord>>>,
    },
    /// One artifact fetched from the store (`payload: None` on a miss —
    /// a miss is an answer, not an error).
    ArtifactGet {
        /// Echo of the request id.
        id: String,
        /// The stage that was queried.
        stage: String,
        /// The content hash that was queried.
        hash: ContentHash,
        /// The phase-pack payload on a hit; `None` on a miss.
        payload: Option<std::sync::Arc<Vec<u8>>>,
    },
    /// The outcome of offering an artifact to the store.
    ArtifactPut {
        /// Echo of the request id.
        id: String,
        /// The stage that was written.
        stage: String,
        /// The content hash the artifact was admitted under.
        hash: ContentHash,
        /// Whether the artifact is resident after admission (`false` means
        /// the byte budget declined it).
        admitted: bool,
    },
    /// The store's per-stage key inventory.
    ArtifactList {
        /// Echo of the request id.
        id: String,
        /// `(stage, resident keys)` in spill order.
        stages: Vec<(&'static str, Vec<ContentHash>)>,
    },
    /// A structured error.
    Error {
        /// Echo of the request id, when one was parsed.
        id: Option<String>,
        /// What went wrong.
        error: ServeError,
    },
}

impl TuningResponse {
    /// Whether this is an error response.
    pub fn is_error(&self) -> bool {
        matches!(self, TuningResponse::Error { .. })
    }

    /// The request id this response echoes, when one was parsed. The wire
    /// loop keys the recent-trace cache by it.
    pub fn response_id(&self) -> Option<&str> {
        match self {
            TuningResponse::Report { id, .. }
            | TuningResponse::Stats { id, .. }
            | TuningResponse::Trace { id, .. }
            | TuningResponse::ArtifactGet { id, .. }
            | TuningResponse::ArtifactPut { id, .. }
            | TuningResponse::ArtifactList { id, .. } => Some(id),
            TuningResponse::Error { id, .. } => id.as_deref(),
        }
    }

    /// The response as a JSON document (compact-rendered on the wire).
    pub fn to_json(&self) -> JsonValue {
        match self {
            TuningResponse::Report {
                id,
                kind,
                spec_hash,
                report,
            } => JsonValue::object()
                .field("id", id.as_str())
                .field("status", "ok")
                .field("kind", *kind)
                .field("spec_hash", spec_hash.to_string())
                .field("study", report.study.as_str())
                .field("title", report.title.as_str())
                .field("rows", report.rows_json()),
            TuningResponse::Stats { id, stats } => JsonValue::object()
                .field("id", id.as_str())
                .field("status", "ok")
                .field("kind", "stats")
                .field("stats", stats.to_json()),
            TuningResponse::Trace { id, target, events } => JsonValue::object()
                .field("id", id.as_str())
                .field("status", "ok")
                .field("kind", "trace")
                .field("target", target.as_str())
                .field("found", events.is_some())
                .field(
                    "events",
                    events
                        .as_deref()
                        .map(Vec::as_slice)
                        .unwrap_or(&[])
                        .iter()
                        .map(phase_core::trace_export::record_to_json)
                        .collect::<Vec<_>>(),
                ),
            TuningResponse::ArtifactGet {
                id,
                stage,
                hash,
                payload,
            } => JsonValue::object()
                .field("id", id.as_str())
                .field("status", "ok")
                .field("kind", "artifact-get")
                .field("stage", stage.as_str())
                .field("hash", hash.to_string())
                .field("found", payload.is_some())
                .field(
                    "payload",
                    payload
                        .as_deref()
                        .map(|bytes| JsonValue::from(base64_encode(bytes)))
                        .unwrap_or(JsonValue::Null),
                ),
            TuningResponse::ArtifactPut {
                id,
                stage,
                hash,
                admitted,
            } => JsonValue::object()
                .field("id", id.as_str())
                .field("status", "ok")
                .field("kind", "artifact-put")
                .field("stage", stage.as_str())
                .field("hash", hash.to_string())
                .field("admitted", *admitted),
            TuningResponse::ArtifactList { id, stages } => JsonValue::object()
                .field("id", id.as_str())
                .field("status", "ok")
                .field("kind", "artifact-list")
                .field(
                    "stages",
                    stages
                        .iter()
                        .fold(JsonValue::object(), |doc, (stage, keys)| {
                            doc.field(
                                stage,
                                keys.iter()
                                    .map(|k| JsonValue::from(k.to_string()))
                                    .collect::<Vec<_>>(),
                            )
                        }),
                ),
            TuningResponse::Error { id, error } => JsonValue::object()
                .field(
                    "id",
                    id.as_deref()
                        .map(JsonValue::from)
                        .unwrap_or(JsonValue::Null),
                )
                .field("status", "error")
                .field("code", error.code)
                .field("message", error.message.as_str()),
        }
    }
}

/// Resolves a machine wire name.
pub(crate) fn machine_by_name(name: &str) -> Option<MachineSpec> {
    match name {
        "core2-quad" => Some(MachineSpec::core2_quad_amp()),
        "three-core" => Some(MachineSpec::three_core_amp()),
        _ => None,
    }
}

fn bad(message: impl Into<String>) -> ServeError {
    ServeError::new("bad-request", message)
}

/// Upper bounds on wire-supplied resource knobs: a single request must not
/// be able to OOM or stall the long-running service before the store budget
/// even applies.
const MAX_CATALOG_SCALE: f64 = 16.0;
const MAX_SLOTS: u64 = 1024;
const MAX_JOBS_PER_SLOT: u64 = 1024;
const MAX_HORIZON_NS: f64 = 1e12; // 1000 simulated seconds
const MAX_SECTION_SIZE: u64 = 1_000_000;

fn get_f64(doc: &JsonValue, name: &str) -> Result<Option<f64>, ServeError> {
    match doc.get(name) {
        None => Ok(None),
        Some(value) => value
            .as_f64()
            .map(Some)
            .ok_or_else(|| bad(format!("field '{name}' must be a number"))),
    }
}

fn get_u64(doc: &JsonValue, name: &str) -> Result<Option<u64>, ServeError> {
    // Matched on the document model directly — never through `f64` — so
    // 64-bit seeds above 2^53 are carried exactly, not silently rounded.
    match doc.get(name) {
        None => Ok(None),
        Some(JsonValue::UInt(value)) => Ok(Some(*value)),
        Some(JsonValue::Int(value)) if *value >= 0 => Ok(Some(*value as u64)),
        Some(_) => Err(bad(format!(
            "field '{name}' must be a non-negative integer"
        ))),
    }
}

fn get_str<'a>(doc: &'a JsonValue, name: &str) -> Result<Option<&'a str>, ServeError> {
    match doc.get(name) {
        None => Ok(None),
        Some(value) => value
            .as_str()
            .map(Some)
            .ok_or_else(|| bad(format!("field '{name}' must be a string"))),
    }
}

/// Rejects any field of `doc` that is in none of the `allowed` sets.
fn check_fields(doc: &JsonValue, allowed: &[&[&str]], context: &str) -> Result<(), ServeError> {
    let JsonValue::Object(fields) = doc else {
        return Err(bad(format!("{context} must be a JSON object")));
    };
    for (name, _) in fields {
        if !allowed.iter().any(|set| set.contains(&name.as_str())) {
            return Err(ServeError::new(
                "unknown-field",
                format!("unknown field '{name}' in {context}"),
            ));
        }
    }
    Ok(())
}

/// Parses a `catalog` object; the second value reports whether `seed` was
/// given explicitly (comparison requests must leave it unset — their
/// catalogue seed is `workload_seed`).
fn parse_catalog(
    doc: &JsonValue,
    defaults: &CatalogSpec,
) -> Result<(CatalogSpec, bool), ServeError> {
    check_fields(doc, &[&["kind", "scale", "seed"]], "'catalog'")?;
    let scale = get_f64(doc, "scale")?.unwrap_or(defaults.scale);
    if !(scale.is_finite() && scale > 0.0 && scale <= MAX_CATALOG_SCALE) {
        return Err(bad(format!(
            "catalog scale must be a positive number at most {MAX_CATALOG_SCALE}"
        )));
    }
    let explicit_seed = get_u64(doc, "seed")?;
    let seed = explicit_seed.unwrap_or(defaults.seed);
    let kind = match get_str(doc, "kind")?.unwrap_or(defaults.kind.name()) {
        "standard" => CatalogKind::Standard,
        "mixed" => CatalogKind::Mixed,
        "drifting" => CatalogKind::Drifting,
        "extended" => CatalogKind::Extended,
        "service" => CatalogKind::Service,
        other => {
            return Err(bad(format!(
                "unknown catalog kind '{other}' (expected standard, mixed, drifting, \
                 extended, or service)"
            )))
        }
    };
    let spec = match kind {
        CatalogKind::Standard => CatalogSpec::standard(scale, seed),
        CatalogKind::Mixed => CatalogSpec::mixed(scale, seed),
        CatalogKind::Drifting => CatalogSpec::drifting(scale, seed),
        CatalogKind::Extended => CatalogSpec::extended(scale, seed),
        CatalogKind::Service => CatalogSpec::service(scale, seed),
    };
    Ok((spec, explicit_seed.is_some()))
}

fn parse_marking(doc: &JsonValue, defaults: MarkingConfig) -> Result<MarkingConfig, ServeError> {
    check_fields(
        doc,
        &[&["granularity", "min_section_size", "lookahead_depth"]],
        "'marking'",
    )?;
    let min = match get_u64(doc, "min_section_size")? {
        Some(v) if v > MAX_SECTION_SIZE => {
            return Err(bad(format!(
                "min_section_size must be at most {MAX_SECTION_SIZE}"
            )))
        }
        Some(v) => v as usize,
        None => defaults.min_section_size,
    };
    let lookahead = get_u64(doc, "lookahead_depth")?.map(|v| v as usize);
    let granularity = get_str(doc, "granularity")?.unwrap_or("loop");
    // A knob that cannot apply to the chosen granularity is an error, not a
    // silent no-op — the strict-schema contract everywhere else.
    if lookahead.is_some() && granularity != "basic-block" {
        return Err(bad(format!(
            "lookahead_depth only applies to basic-block marking, not '{granularity}'"
        )));
    }
    match granularity {
        "loop" => Ok(MarkingConfig::loop_level(min)),
        "interval" => Ok(MarkingConfig::interval(min)),
        "basic-block" => Ok(MarkingConfig::basic_block(
            min,
            lookahead.unwrap_or(defaults.lookahead_depth),
        )),
        other => Err(bad(format!(
            "unknown marking granularity '{other}' (expected loop, interval, or basic-block)"
        ))),
    }
}

const REQUEST_FIELDS: &[&str] = &[
    "id",
    "kind",
    "expect_hash",
    "catalog",
    "machine",
    "marking",
    "ipc_threshold",
    "horizon_ns",
    "slots",
    "jobs_per_slot",
    "workload_seed",
    "target",
    "stage",
    "hash",
    "payload",
];

fn parse_spec(doc: &JsonValue) -> Result<TuneSpec, ServeError> {
    let mut spec = TuneSpec::default();
    if let Some(catalog) = doc.get("catalog") {
        (spec.catalog, spec.catalog_seed_explicit) = parse_catalog(catalog, &spec.catalog)?;
    }
    if let Some(name) = get_str(doc, "machine")? {
        spec.machine = machine_by_name(name).ok_or_else(|| {
            bad(format!(
                "unknown machine '{name}' (expected core2-quad or three-core)"
            ))
        })?;
        spec.machine_name = name.to_string();
    }
    if let Some(marking) = doc.get("marking") {
        spec.pipeline =
            PipelineConfig::with_marking(parse_marking(marking, spec.pipeline.marking)?);
    }
    if let Some(threshold) = get_f64(doc, "ipc_threshold")? {
        // δ = 0 is a point on the paper's Figure 6 sweep: any strictly
        // better kind wins.
        if !(threshold.is_finite() && threshold >= 0.0) {
            return Err(bad("ipc_threshold must be a non-negative number"));
        }
        // `-0.0` passes the check; store it as `0.0` so both spellings of
        // zero share one spec hash, and so one cache key.
        spec.ipc_threshold = if threshold == 0.0 { 0.0 } else { threshold };
    }
    if let Some(horizon) = get_f64(doc, "horizon_ns")? {
        if !(horizon.is_finite() && horizon > 0.0 && horizon <= MAX_HORIZON_NS) {
            return Err(bad(format!(
                "horizon_ns must be a positive number at most {MAX_HORIZON_NS:e}"
            )));
        }
        spec.horizon_ns = horizon;
    }
    if let Some(slots) = get_u64(doc, "slots")? {
        if slots == 0 || slots > MAX_SLOTS {
            return Err(bad(format!("slots must be between 1 and {MAX_SLOTS}")));
        }
        spec.slots = slots as usize;
    }
    if let Some(jobs) = get_u64(doc, "jobs_per_slot")? {
        if jobs == 0 || jobs > MAX_JOBS_PER_SLOT {
            return Err(bad(format!(
                "jobs_per_slot must be between 1 and {MAX_JOBS_PER_SLOT}"
            )));
        }
        spec.jobs_per_slot = jobs as usize;
    }
    if let Some(seed) = get_u64(doc, "workload_seed")? {
        spec.workload_seed = seed;
    }
    Ok(spec)
}

/// Parses the `stage` + `hash` pair every artifact request carries.
fn parse_artifact_target(doc: &JsonValue) -> Result<(String, ContentHash), ServeError> {
    let stage = match get_str(doc, "stage")? {
        Some(stage) if SPILL_STAGES.contains(&stage) => stage.to_string(),
        Some(other) => {
            return Err(bad(format!(
                "unknown stage '{other}' (expected one of: {})",
                SPILL_STAGES.join(", ")
            )))
        }
        None => return Err(bad("missing required field 'stage'")),
    };
    let hash = match get_str(doc, "hash")? {
        Some(text) => {
            ContentHash::from_hex(text).ok_or_else(|| bad("field 'hash' must be 32 hex digits"))?
        }
        None => return Err(bad("missing required field 'hash'")),
    };
    Ok((stage, hash))
}

/// Parses one request line. On failure the ready-to-send error response is
/// returned instead (boxed — it is much larger than a request; carrying the
/// request id whenever one could be read), so the serving loop never dies on
/// bad input.
pub fn parse_request(line: &str) -> Result<TuningRequest, Box<TuningResponse>> {
    let doc = parse(line).map_err(|e| TuningResponse::Error {
        id: None,
        error: ServeError::new("bad-json", e.to_string()),
    })?;
    // The id is extracted first so every later error can echo it.
    let id = match get_str(&doc, "id") {
        Ok(id) => id.unwrap_or("").to_string(),
        Err(error) => return Err(Box::new(TuningResponse::Error { id: None, error })),
    };
    let fail = |error: ServeError| {
        Box::new(TuningResponse::Error {
            id: Some(id.clone()),
            error,
        })
    };
    let allow = |sets: &[&[&str]], context: &str| check_fields(&doc, sets, context).map_err(&fail);
    allow(&[REQUEST_FIELDS], "the request")?;
    // Fields are validated per kind: a knob the kind cannot consume is an
    // error, not a silent no-op, so a client always learns when a knob had
    // no effect. Every kind accepts the `BARE` fields.
    const BARE: &[&str] = &["id", "kind", "expect_hash"];
    const SPEC: &[&str] = &["catalog", "machine", "marking"];
    let kind = match get_str(&doc, "kind").map_err(&fail)? {
        None => return Err(fail(bad("missing required field 'kind'"))),
        Some("stats") => {
            // A stats request has no spec at all.
            allow(&[BARE], "a stats request")?;
            RequestKind::Stats
        }
        Some("trace") => {
            allow(&[BARE, &["target"]], "a trace request")?;
            let target = match get_str(&doc, "target").map_err(&fail)? {
                Some(target) if !target.is_empty() => target.to_string(),
                Some(_) => return Err(fail(bad("field 'target' must be a non-empty string"))),
                None => return Err(fail(bad("missing required field 'target'"))),
            };
            RequestKind::Trace { target }
        }
        Some("isolation") => {
            allow(&[BARE, SPEC, &["ipc_threshold"]], "an isolation request")?;
            RequestKind::Isolation(parse_spec(&doc).map_err(&fail)?)
        }
        Some("marks") => {
            allow(&[BARE, SPEC], "a marks request")?;
            RequestKind::Marks(parse_spec(&doc).map_err(&fail)?)
        }
        Some("comparison") => {
            let shape = [
                "ipc_threshold",
                "horizon_ns",
                "slots",
                "jobs_per_slot",
                "workload_seed",
            ];
            allow(&[BARE, SPEC, &shape], "a comparison request")?;
            RequestKind::Comparison(parse_spec(&doc).map_err(&fail)?)
        }
        Some("artifact-get") => {
            allow(&[BARE, &["stage", "hash"]], "an artifact-get request")?;
            let (stage, hash) = parse_artifact_target(&doc).map_err(&fail)?;
            RequestKind::ArtifactGet { stage, hash }
        }
        Some("artifact-put") => {
            allow(
                &[BARE, &["stage", "hash", "payload"]],
                "an artifact-put request",
            )?;
            let (stage, hash) = parse_artifact_target(&doc).map_err(&fail)?;
            let payload = match get_str(&doc, "payload").map_err(&fail)? {
                Some(text) => base64_decode(text).map_err(|e| {
                    fail(ServeError::new(
                        "bad-payload",
                        format!("field 'payload' is not valid base64: {e}"),
                    ))
                })?,
                None => return Err(fail(bad("missing required field 'payload'"))),
            };
            RequestKind::ArtifactPut {
                stage,
                hash,
                payload,
            }
        }
        Some("artifact-list") => {
            allow(&[BARE], "an artifact-list request")?;
            RequestKind::ArtifactList
        }
        Some(other) => {
            return Err(fail(ServeError::new(
                "unknown-kind",
                format!(
                    "unknown request kind '{other}' \
                     (expected isolation, marks, comparison, stats, trace, \
                     artifact-get, artifact-put, or artifact-list)"
                ),
            )))
        }
    };
    let request = TuningRequest { id, kind };
    if let Some(expected) = get_str(&doc, "expect_hash")
        .map_err(|error| {
            Box::new(TuningResponse::Error {
                id: Some(request.id.clone()),
                error,
            })
        })?
        .map(str::to_string)
    {
        let actual = request.spec_hash();
        if ContentHash::from_hex(&expected) != Some(actual) {
            return Err(Box::new(TuningResponse::Error {
                id: Some(request.id),
                error: ServeError::new(
                    "hash-mismatch",
                    format!("expect_hash {expected} does not match the resolved spec {actual}"),
                ),
            }));
        }
    }
    Ok(request)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_round_trip_and_hash_stably() {
        let request = parse_request("{\"id\": \"r1\", \"kind\": \"marks\"}").unwrap();
        assert_eq!(request.id, "r1");
        assert_eq!(request.kind.name(), "marks");
        let again = parse_request("{\"kind\": \"marks\", \"id\": \"r1\"}").unwrap();
        assert_eq!(request.spec_hash(), again.spec_hash());
        // Any consumable knob change changes the hash.
        let base = parse_request("{\"id\": \"r1\", \"kind\": \"isolation\"}").unwrap();
        let other =
            parse_request("{\"id\": \"r1\", \"kind\": \"isolation\", \"ipc_threshold\": 0.3}")
                .unwrap();
        assert_ne!(base.spec_hash(), other.spec_hash());
        // A knob the kind cannot consume is rejected, never silently hashed.
        let err = parse_request("{\"id\": \"r1\", \"kind\": \"marks\", \"ipc_threshold\": 0.3}")
            .unwrap_err();
        let TuningResponse::Error { error, .. } = *err else {
            panic!("expected an error response");
        };
        assert_eq!(error.code, "unknown-field");
    }

    #[test]
    fn ipc_threshold_accepts_zero_and_rejects_negatives() {
        let threshold_of = |value: &str| {
            parse_request(&format!(
                "{{\"id\": \"r\", \"kind\": \"isolation\", \"ipc_threshold\": {value}}}"
            ))
        };
        // δ = 0, as Figure 6 sweeps it; every spelling of zero is one spec.
        let zero = threshold_of("0").unwrap();
        assert_eq!(zero.kind.spec().unwrap().ipc_threshold, 0.0);
        for spelling in ["0.0", "-0", "-0.0"] {
            let same = threshold_of(spelling).unwrap();
            let threshold = same.kind.spec().unwrap().ipc_threshold;
            assert_eq!(threshold.to_bits(), 0.0f64.to_bits(), "{spelling}");
            assert_eq!(same.spec_hash(), zero.spec_hash(), "{spelling}");
        }
        for rejected in ["-0.1", "-1e-300", "1e999", "-1e999"] {
            let TuningResponse::Error { error, .. } = *threshold_of(rejected).unwrap_err() else {
                panic!("expected an error response for {rejected}");
            };
            assert_eq!(error.code, "bad-request", "{rejected}");
            assert_eq!(
                error.message, "ipc_threshold must be a non-negative number",
                "{rejected}"
            );
        }
        // JSON has no NaN literal: the line fails to parse, with a
        // structured error rather than a panic.
        let TuningResponse::Error { error, .. } = *threshold_of("NaN").unwrap_err() else {
            panic!("expected an error response for NaN");
        };
        assert!(!error.code.is_empty());
    }

    #[test]
    fn integer_fields_parse_exactly_above_f64_precision() {
        // 2^53 and 2^53 + 1 collapse to one value through f64; the wire
        // parser must keep them distinct.
        let a = parse_request(
            "{\"id\": \"r\", \"kind\": \"comparison\", \"workload_seed\": 9007199254740992}",
        )
        .unwrap();
        let b = parse_request(
            "{\"id\": \"r\", \"kind\": \"comparison\", \"workload_seed\": 9007199254740993}",
        )
        .unwrap();
        assert_eq!(a.kind.spec().unwrap().workload_seed, 9007199254740992);
        assert_eq!(b.kind.spec().unwrap().workload_seed, 9007199254740993);
        assert_ne!(a.spec_hash(), b.spec_hash());
        // Floats (even integral ones) and negatives are rejected for
        // integer fields.
        for bad in [
            "{\"id\": \"r\", \"kind\": \"comparison\", \"workload_seed\": 7.0}",
            "{\"id\": \"r\", \"kind\": \"comparison\", \"workload_seed\": -7}",
        ] {
            let TuningResponse::Error { error, .. } = *parse_request(bad).unwrap_err() else {
                panic!("expected an error response");
            };
            assert_eq!(error.code, "bad-request");
        }
    }

    #[test]
    fn unknown_fields_and_kinds_are_structured_errors() {
        let err = parse_request("{\"id\": \"r\", \"kind\": \"marks\", \"bogus\": 1}").unwrap_err();
        let TuningResponse::Error { id, error } = *err else {
            panic!("expected an error response");
        };
        assert_eq!(id.as_deref(), Some("r"));
        assert_eq!(error.code, "unknown-field");

        let err = parse_request("{\"id\": \"r\", \"kind\": \"dance\"}").unwrap_err();
        let TuningResponse::Error { error, .. } = *err else {
            panic!("expected an error response");
        };
        assert_eq!(error.code, "unknown-kind");

        let err = parse_request("{\"id\": \"r\", \"kind\"").unwrap_err();
        let TuningResponse::Error { id, error } = *err else {
            panic!("expected an error response");
        };
        assert_eq!(id, None, "truncated JSON has no readable id");
        assert_eq!(error.code, "bad-json");
    }

    #[test]
    fn expect_hash_gates_resolution() {
        let request = parse_request("{\"id\": \"r\", \"kind\": \"isolation\"}").unwrap();
        let good = format!(
            "{{\"id\": \"r\", \"kind\": \"isolation\", \"expect_hash\": \"{}\"}}",
            request.spec_hash()
        );
        assert!(parse_request(&good).is_ok());
        let bad = "{\"id\": \"r\", \"kind\": \"isolation\", \
                   \"expect_hash\": \"00000000000000000000000000000000\"}";
        let TuningResponse::Error { error, .. } = *parse_request(bad).unwrap_err() else {
            panic!("expected an error response");
        };
        assert_eq!(error.code, "hash-mismatch");
    }
}
