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
//! One request pipeline serves every front end:
//!
//! 1. **parse** a request line into a [`TuningRequest`] (malformed input
//!    becomes a structured error response and never kills a loop);
//! 2. **answer inline** the `stats`, `trace` and artifact kinds;
//! 3. **coalesce** a study request: it joins the single-flight table for
//!    its spec hash, and a follower waits for the leader's outcome (safe
//!    because identical specs resolve to bit-identical reports) without
//!    taking an execution slot;
//! 4. **execute** the leader's study under a panic guard — a panicking
//!    study answers a structured `internal` error — publish the outcome to
//!    the followers, and count the response.
//!
//! The front ends differ only in where step 4 runs. Direct calls
//! ([`TuningService::handle`] and [`TuningService::respond`], callable from
//! any thread through an `Arc<TuningService>`) and [`serve_lines`] over any
//! reader/writer pair run it on the calling thread. [`serve_tcp`] /
//! [`serve_tcp_with`] over a `TcpListener` hand it to a bounded executor
//! pool ([`WireConfig`]): a fixed pool of connection workers multiplexes
//! connections instead of spawning a thread each, a slow study occupies an
//! executor slot rather than a connection, and when the executor queue is
//! full, requests are shed immediately with a structured `overloaded` error
//! instead of queueing without bound. Admission, shedding, coalescing, and
//! per-kind latency percentiles are all visible in [`ServiceStats`] (the
//! `stats` request) and in the optional periodic `service-metrics` NDJSON
//! line.
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
mod wire;

pub use remote::{remote_inventory, remote_push, remote_warm_start, RemoteSyncStats};
pub use request::{
    parse_request, RequestKind, ServeError, TuneSpec, TuningRequest, TuningResponse,
};
pub use service::{
    KindAdmission, KindLatency, ServiceConfig, ServiceStats, ServingStats, TuningService,
};
pub use wire::{
    emit_metrics_line, serve_lines, serve_tcp, serve_tcp_with, WireConfig, WireSummary,
    DEFAULT_MAX_LINE_BYTES,
};
