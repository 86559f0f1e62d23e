//! The newline-delimited-JSON front end: one request per line in, one
//! response per line out, over any reader/writer pair or a TCP listener.
//!
//! Both loops run every line through the service's one request pipeline
//! ([`TuningService::respond`]); they differ only in the execute step. The
//! in-memory loop executes studies on the calling thread. The TCP front end
//! is a fixed-size pool, not thread-per-connection: an acceptor thread hands
//! connections to `connection_workers` serving threads, and study execution
//! is forwarded to a separate bounded [`Executor`](crate::pool) pool so one
//! slow study occupies an executor slot, not a connection slot — stats
//! requests, parse errors, and coalesced followers keep flowing. Admission
//! is bounded on every axis: the request queue sheds with a structured
//! `overloaded` error when [`WireConfig::queue_depth`] is exceeded, more
//! than 128 accepted connections waiting for a worker shed (with a
//! best-effort error line), and request lines longer than
//! [`DEFAULT_MAX_LINE_BYTES`] close the connection with a structured error
//! instead of buffering without bound.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use phase_core::json::JsonValue;

use crate::pool::{Executor, WorkQueue};
use crate::request::{ServeError, TuningResponse};
use crate::service::TuningService;

/// Cap on one request line; a client streaming an endless line gets a
/// structured error and a closed connection, never an OOM.
pub const DEFAULT_MAX_LINE_BYTES: usize = 4 * 1024 * 1024;

/// Accepted connections that may wait for a connection worker; beyond this,
/// new connections are shed with a best-effort error line.
const PENDING_CONNECTIONS: usize = 128;

/// How the TCP front end is shaped: pool sizes, admission bounds, and the
/// optional periodic metrics line.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Connection-serving worker threads (clamped to at least 1).
    pub connection_workers: usize,
    /// Study-executor worker threads (clamped to at least 1).
    pub executor_workers: usize,
    /// Bound on queued (admitted, not yet executing) study requests; when
    /// full, requests answer a structured `overloaded` error immediately.
    pub queue_depth: usize,
    /// Emit a `service-metrics` NDJSON line to stderr this often; `None`
    /// disables the emitter.
    pub metrics_every: Option<Duration>,
}

impl Default for WireConfig {
    fn default() -> Self {
        Self {
            connection_workers: 4,
            executor_workers: 2,
            queue_depth: 64,
            metrics_every: None,
        }
    }
}

/// What one serving loop (or one whole [`serve_tcp`] run) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireSummary {
    /// Responses written (one per non-empty input line).
    pub responses: u64,
    /// How many of them were structured errors.
    pub errors: u64,
    /// Request lines rejected (and connections closed) for exceeding the
    /// line-length cap.
    pub overlong: u64,
    /// Connections dropped because the stream could not be split for
    /// reading (`try_clone` failure); each got a best-effort error line.
    pub failed_connections: u64,
}

impl WireSummary {
    fn absorb(&mut self, other: WireSummary) {
        self.responses += other.responses;
        self.errors += other.errors;
        self.overlong += other.overlong;
        self.failed_connections += other.failed_connections;
    }
}

/// Serves newline-delimited JSON requests from `reader`, writing one
/// compact-JSON response line per request to `writer` and executing studies
/// inline on the calling thread. Empty lines are skipped; malformed lines —
/// including lines that are not valid UTF-8 — produce structured error
/// responses and the loop keeps serving; a line longer than
/// [`DEFAULT_MAX_LINE_BYTES`] produces a structured error and closes the
/// loop. Returns when the reader reaches end of input (only a real I/O
/// error is `Err`).
pub fn serve_lines<R: BufRead, W: Write>(
    service: &TuningService,
    reader: R,
    writer: &mut W,
) -> io::Result<WireSummary> {
    serve_connection(service, reader, writer, None)
}

/// The shared serving loop: reads capped lines and runs each through the
/// request pipeline, whose execute step is the bounded pool when an
/// executor is present (single-flight coalescing is joined *before*
/// admission) and the calling thread otherwise.
fn serve_connection<R: BufRead, W: Write>(
    service: &TuningService,
    mut reader: R,
    writer: &mut W,
    executor: Option<&Executor>,
) -> io::Result<WireSummary> {
    let mut summary = WireSummary::default();
    let mut buffer = Vec::new();
    loop {
        buffer.clear();
        // Raw bytes, not `lines()`: a non-UTF-8 byte must become a
        // structured error response, never kill the serving loop. The
        // `take` bounds how much of an endless line is ever buffered.
        let mut limited = reader.by_ref().take(DEFAULT_MAX_LINE_BYTES as u64 + 1);
        if limited.read_until(b'\n', &mut buffer)? == 0 {
            return Ok(summary);
        }
        let overlong = buffer.len() > DEFAULT_MAX_LINE_BYTES && buffer.last() != Some(&b'\n');
        let (response, trace) = if overlong {
            // Over-long line: answer a structured error and close the
            // connection — the rest of the line cannot be resynchronized.
            service
                .metrics()
                .overlong_lines
                .fetch_add(1, Ordering::Relaxed);
            service.note_parse_error();
            let error = ServeError {
                code: "line-too-long",
                message: format!(
                    "request line exceeds the {DEFAULT_MAX_LINE_BYTES}-byte cap; closing the \
                     connection"
                ),
            };
            (TuningResponse::Error { id: None, error }, None)
        } else {
            match std::str::from_utf8(&buffer) {
                Ok(text) => {
                    let line = text.trim_end_matches(['\n', '\r']);
                    if line.trim().is_empty() {
                        continue;
                    }
                    let trace = RequestTrace::begin();
                    (service.respond_on(line, executor), trace)
                }
                Err(_) => (
                    service.respond_malformed("request line is not valid UTF-8"),
                    None,
                ),
            }
        };
        // Serialization happens under the request's trace context (when one
        // is active) so the root span covers it, then the finished timeline
        // is collected and cached *before* the response reaches the client —
        // a follow-up `trace` request can never race the cache.
        let payload = {
            let _span = phase_trace::span("serialize");
            response.to_json().render_compact()
        };
        if let Some(trace) = trace {
            trace.finish(service, &response);
        }
        if response.is_error() {
            summary.errors += 1;
        }
        summary.responses += 1;
        writer.write_all(payload.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if overlong {
            summary.overlong += 1;
            return Ok(summary);
        }
    }
}

/// The per-request tracing scaffold of the serving loop: a fresh trace id,
/// the wire-lane context, and the root `request` span. `None` when tracing
/// is disabled — the whole thing then costs one relaxed load per request.
struct RequestTrace {
    trace_id: u64,
    // Dropped in declaration order: the root span's close must be emitted
    // while the context below it is still installed.
    root: phase_trace::Span,
    ctx: phase_trace::CtxGuard,
}

impl RequestTrace {
    fn begin() -> Option<Self> {
        if !phase_trace::enabled() {
            return None;
        }
        let trace_id = phase_trace::new_trace_id();
        let ctx = phase_trace::install(trace_id, phase_trace::Lane::Wire, 0);
        let root = phase_trace::span("request");
        Some(Self {
            trace_id,
            root,
            ctx,
        })
    }

    /// Closes the root span, collects the request's records from every
    /// thread's ring, and caches the timeline under the response's id.
    fn finish(self, service: &TuningService, response: &TuningResponse) {
        let Self {
            trace_id,
            root,
            ctx,
        } = self;
        drop(root);
        drop(ctx);
        let records = phase_trace::take(trace_id);
        if let Some(id) = response.response_id() {
            service.cache_trace(id, records);
        }
    }
}

/// A best-effort structured error line for a connection the server cannot
/// serve (shed at accept, or its stream could not be split for reading).
fn connection_error_line(code: &'static str, message: &str) -> String {
    let doc = JsonValue::object()
        .field("id", JsonValue::Null)
        .field("status", "error")
        .field("code", code)
        .field("message", message);
    format!("{}\n", doc.render_compact())
}

/// One `service-metrics` NDJSON line: the full [`ServiceStats`] snapshot
/// wrapped in an `event` envelope so log consumers can tell it from
/// responses.
///
/// [`ServiceStats`]: crate::service::ServiceStats
pub fn emit_metrics_line<W: Write>(service: &TuningService, writer: &mut W) -> io::Result<()> {
    let line = JsonValue::object()
        .field("event", "service-metrics")
        .field("seq", service.next_metrics_seq())
        .field("uptime_ns", service.uptime_ns())
        .field("stats", service.stats().to_json())
        .render_compact();
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Serves NDJSON requests over TCP with the default [`WireConfig`]. With
/// `max_connections` the listener stops accepting after that many
/// connections and the call returns an aggregate [`WireSummary`] once they
/// all drain (useful for tests and bounded deployments); `None` accepts
/// forever. Transient accept failures (a peer that resets before the
/// handshake completes, a momentary descriptor shortage) are logged and
/// skipped — a long-running listener must not die on them.
pub fn serve_tcp(
    service: &Arc<TuningService>,
    listener: TcpListener,
    max_connections: Option<usize>,
) -> io::Result<WireSummary> {
    serve_tcp_with(service, listener, max_connections, WireConfig::default())
}

/// [`serve_tcp`] with an explicit [`WireConfig`]: the fixed-size connection
/// worker pool, the bounded study executor, admission limits, and the
/// optional periodic metrics line.
pub fn serve_tcp_with(
    service: &Arc<TuningService>,
    listener: TcpListener,
    max_connections: Option<usize>,
    config: WireConfig,
) -> io::Result<WireSummary> {
    if max_connections == Some(0) {
        return Ok(WireSummary::default());
    }
    let executor = Arc::new(Executor::new(
        Arc::clone(service),
        config.executor_workers,
        config.queue_depth,
    ));
    let connections = Arc::new(WorkQueue::new(PENDING_CONNECTIONS));
    let workers: Vec<_> = (0..config.connection_workers.max(1))
        .map(|_| {
            let service = Arc::clone(service);
            let executor = Arc::clone(&executor);
            let connections = Arc::clone(&connections);
            std::thread::spawn(move || connection_worker_loop(&service, &executor, &connections))
        })
        .collect();

    // The periodic metrics emitter: it waits on a channel whose sender is
    // dropped when serving ends, so it exits at once instead of sleeping
    // out its interval.
    let (stop_emitter, stopped) = mpsc::channel::<()>();
    let emitter = config.metrics_every.map(|every| {
        let service = Arc::clone(service);
        std::thread::spawn(move || {
            while stopped.recv_timeout(every) == Err(mpsc::RecvTimeoutError::Timeout) {
                let _ = emit_metrics_line(&service, &mut io::stderr().lock());
            }
        })
    });

    let metrics = service.metrics();
    let mut accepted = 0usize;
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(stream) => stream,
            Err(error) => {
                // Back off briefly: a persistent error (e.g. descriptor
                // exhaustion) must not busy-spin the accept loop.
                eprintln!("phase-serve: accept failed, still listening: {error}");
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        accepted += 1;
        metrics.connections_accepted.fetch_add(1, Ordering::Relaxed);
        // One-line request/response traffic: Nagle + delayed ACK would add
        // ~40ms to every exchange, swamping real service latency.
        let _ = stream.set_nodelay(true);
        if let Err(mut stream) = connections.push(stream, |_| {}) {
            // Shed at accept: the client learns immediately instead of
            // waiting behind a queue the pool cannot drain.
            metrics.connections_shed.fetch_add(1, Ordering::Relaxed);
            let _ = stream.write_all(
                connection_error_line(
                    "overloaded",
                    "too many connections waiting for a worker; retry later",
                )
                .as_bytes(),
            );
        }
        if max_connections.is_some_and(|max| accepted >= max) {
            break;
        }
    }

    // Drain: no more connections will arrive; workers exit once the pending
    // queue is empty, then the executor pool drains and joins on drop.
    connections.close();
    let mut summary = WireSummary::default();
    for worker in workers {
        summary.absorb(worker.join().unwrap_or_default());
    }
    drop(stop_emitter);
    if let Some(handle) = emitter {
        let _ = handle.join();
    }
    Ok(summary)
}

/// One connection worker: serves queued connections one at a time until
/// the queue closes, and returns what it served.
fn connection_worker_loop(
    service: &Arc<TuningService>,
    executor: &Executor,
    connections: &WorkQueue<TcpStream>,
) -> WireSummary {
    let metrics = service.metrics();
    let mut summary = WireSummary::default();
    while let Some(stream) = connections.pop(|_| {}) {
        metrics.connections_active.fetch_add(1, Ordering::Relaxed);
        summary.absorb(serve_one_connection(service, executor, stream));
        metrics.connections_active.fetch_sub(1, Ordering::Relaxed);
    }
    summary
}

fn serve_one_connection(
    service: &Arc<TuningService>,
    executor: &Executor,
    stream: TcpStream,
) -> WireSummary {
    let read_half = match stream.try_clone() {
        Ok(read_half) => read_half,
        Err(error) => {
            // The connection cannot be split for reading: tell the peer
            // (best-effort) and count it instead of dropping it silently.
            service
                .metrics()
                .connections_failed
                .fetch_add(1, Ordering::Relaxed);
            let mut writer = stream;
            let _ = writer.write_all(
                connection_error_line(
                    "connection-failed",
                    &format!("could not split the stream for reading: {error}"),
                )
                .as_bytes(),
            );
            return WireSummary {
                failed_connections: 1,
                ..WireSummary::default()
            };
        }
    };
    let mut writer = stream;
    serve_connection(
        service,
        BufReader::new(read_half),
        &mut writer,
        Some(executor),
    )
    .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    #[test]
    fn metrics_line_is_one_parsable_json_object() {
        let service =
            TuningService::new(ServiceConfig::with_threads(1)).expect("cold start cannot fail");
        let mut out = Vec::new();
        emit_metrics_line(&service, &mut out).expect("in-memory write cannot fail");
        let text = String::from_utf8(out).expect("metrics are UTF-8");
        assert!(text.ends_with('\n'), "one NDJSON line");
        let doc = phase_core::json::parse(text.trim_end()).expect("the line parses");
        assert_eq!(
            doc.get("event").and_then(|v| v.as_str()),
            Some("service-metrics")
        );
        assert!(doc.get("stats").is_some(), "carries the full snapshot");
        assert!(
            doc.get("uptime_ns").and_then(|v| v.as_f64()).is_some(),
            "carries service uptime"
        );
        let mut again = Vec::new();
        emit_metrics_line(&service, &mut again).expect("in-memory write cannot fail");
        let second = phase_core::json::parse(String::from_utf8(again).expect("UTF-8").trim_end())
            .expect("the second line parses");
        let first_seq = doc.get("seq").and_then(|v| v.as_f64()).expect("seq") as u64;
        let second_seq = second.get("seq").and_then(|v| v.as_f64()).expect("seq") as u64;
        assert_eq!(second_seq, first_seq + 1, "seq is monotonic per service");
    }

    #[test]
    fn connection_error_lines_are_structured() {
        let line = connection_error_line("overloaded", "retry later");
        let doc = phase_core::json::parse(line.trim_end()).expect("the line parses");
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("error"));
        assert_eq!(doc.get("code").and_then(|v| v.as_str()), Some("overloaded"));
    }
}
