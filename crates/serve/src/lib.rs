//! # phase-serve
//!
//! The long-running tuning service of the reproduction: the ROADMAP's
//! "serve many tuning requests fast" path made concrete.
//!
//! A [`TuningService`] wraps an `Arc<`[`ArtifactStore`]`>` — usually a
//! *bounded* store built with [`ArtifactStore::with_budget`] — and resolves
//! [`TuningRequest`]s against it: a request names a workload catalogue, a
//! machine, and a pipeline/tuner configuration, and the service answers with
//! the rows of the corresponding study (per-benchmark isolation tuning,
//! static mark statistics, or a baseline-versus-tuned comparison) in the
//! unified `StudyReport` schema. Because every stage of the resolution runs
//! through the content-addressed store, a repeated request is answered from
//! cache — the *tune once, run anywhere* amortization the paper argues for,
//! applied across requests instead of across sweep points.
//!
//! Two front ends share one resolution path:
//!
//! * **direct calls** — [`TuningService::handle`], callable from any thread
//!   through an `Arc<TuningService>`, so concurrent callers run in parallel;
//! * **newline-delimited JSON** — [`serve_lines`] over any reader/writer
//!   pair (stdio, an in-memory transcript, a socket) and [`serve_tcp`] /
//!   [`serve_tcp_with`] over a `TcpListener`, both built on the
//!   dependency-free `phase_core::json` document model. Malformed requests
//!   produce structured error responses; they never kill the loop.
//!
//! The TCP front end is built for throughput, not just correctness
//! ([`WireConfig`]): a fixed pool of connection workers multiplexes
//! connections instead of spawning a thread each; study execution runs on a
//! separate bounded executor pool so a slow study cannot starve cheap
//! requests; identical concurrent requests are coalesced into a single
//! execution (single-flight, keyed by spec hash — safe because identical
//! specs resolve to bit-identical reports); and when the executor queue is
//! full, requests are shed immediately with a structured `overloaded` error
//! instead of queueing without bound. Admission, shedding, coalescing, and
//! per-kind latency percentiles are all visible in [`ServiceStats`] (the
//! `stats` wire request) and in the optional periodic `service-metrics`
//! NDJSON line.
//!
//! A service restarted from a spill directory ([`ServiceConfig::warm_start`]
//! / [`TuningService::spill_to_dir`]) reloads the store's compact artifacts
//! and answers its first requests warm.
//!
//! When `phase_trace` tracing is enabled, every wire request records a
//! structured timeline — parse, queue wait, single-flight coalescing,
//! execution, store lookups, and response serialization — and the service
//! keeps the most recent timelines in memory; a `trace` wire request
//! (`{"kind": "trace", "target": "<request id>"}`) replays the full record
//! list for a recently served request.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub use phase_core::ArtifactStore;

mod inflight;
mod pool;
mod remote;
mod request;
mod service;
mod sync;
mod wire;

pub use remote::{remote_inventory, remote_push, remote_warm_start, RemoteSyncStats};
pub use request::{
    parse_request, RequestKind, ServeError, TuneSpec, TuningRequest, TuningResponse,
};
pub use service::{
    KindAdmission, KindLatency, ServiceConfig, ServiceStats, ServingStats, TuningService,
};
pub use wire::{
    emit_metrics_line, serve_lines, serve_lines_capped, serve_tcp, serve_tcp_with, WireConfig,
    WireSummary, DEFAULT_MAX_LINE_BYTES,
};
